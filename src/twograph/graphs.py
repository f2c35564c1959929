"""Single-vertex rank-2 graphs as bicolored words with a commutation rule.

A graph is specified by a number of blue edges, a number of red edges,
and a bijection pairing every blue-red word of length two with the
red-blue word that denotes the same path.  Repeated application of that
rule gives every path a unique representative word for each admissible
color pattern; the blue-first word is the stored normal form, so path
equality is plain word equality.
"""

from __future__ import annotations

import itertools
import json
from typing import Mapping, NamedTuple, Sequence

BLUE = 0
RED = 1

_COLOR_OF_CHAR = {"b": BLUE, "B": BLUE, "r": RED, "R": RED}
_CHAR_OF_COLOR = {BLUE: "b", RED: "r"}

#: Enumerations larger than this raise SizeLimitError instead of running.
DEFAULT_PATH_CAP = 10**6


class GraphError(Exception):
    """Base class for errors raised by this package."""


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


ZERO_DEGREE = Degree(0, 0)


def _as_degree(value) -> Degree:
    if isinstance(value, Degree):
        return value
    n1, n2 = value
    return Degree(int(n1), int(n2))


class TwoGraph:
    """A single-vertex 2-graph: edge counts plus the commutation bijection.

    ``theta`` maps each blue-red pair ``(e, f)`` to the red-blue pair
    ``(f2, e2)`` naming the same degree-(1,1) path.  The table must be a
    bijection; the constructor checks totality and injectivity and
    raises :class:`NotBijectiveError` otherwise.
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
        if n_blue < 1 or n_red < 1:
            raise GraphError("edge counts must be at least 1")
        self.n_blue = int(n_blue)
        self.n_red = int(n_red)

        if isinstance(theta, Mapping):
            rows = [(e, f, ff, ee) for (e, f), (ff, ee) in theta.items()]
        else:
            rows = [tuple(row) for row in theta]

        # dicts, not n1*n2 slots: a short table on huge counts must fail
        # on its first missing pair, not on the allocation
        fwd: dict = {}
        inv: dict = {}
        for e, f, ff, ee in rows:
            if not (0 <= e < self.n_blue and 0 <= ee < self.n_blue):
                raise IdOutOfRangeError(f"blue id out of range in row {(e, f, ff, ee)}")
            if not (0 <= f < self.n_red and 0 <= ff < self.n_red):
                raise IdOutOfRangeError(f"red id out of range in row {(e, f, ff, ee)}")
            src = e * self.n_red + f
            dst = ff * self.n_blue + ee
            if src in fwd:
                raise NotBijectiveError(
                    f"pair (b{e}, r{f}) listed twice", witness=(e, f)
                )
            if dst in inv:
                raise NotBijectiveError(
                    f"pairs map to the same image (r{ff}, b{ee}); "
                    f"second preimage (b{e}, r{f})",
                    witness=(e, f),
                )
            fwd[src] = (ff, ee)
            inv[dst] = (e, f)
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
        """Rows ``[e, f, f2, e2]`` sorted by input pair."""
        rows = []
        for src, (ff, ee) in enumerate(self._fwd):
            e, f = divmod(src, self.n_red)
            rows.append([e, f, ff, ee])
        return rows

    def commute_blue_red(self, e: int, f: int) -> tuple:
        """Rewrite the word (blue e)(red f) as (red f2)(blue e2)."""
        if not (0 <= e < self.n_blue and 0 <= f < self.n_red):
            raise IdOutOfRangeError(f"(b{e}, r{f}) out of range")
        return self._fwd[e * self.n_red + f]

    def commute_red_blue(self, f: int, e: int) -> tuple:
        """Rewrite the word (red f)(blue e) as (blue e2)(red f2)."""
        if not (0 <= e < self.n_blue and 0 <= f < self.n_red):
            raise IdOutOfRangeError(f"(r{f}, b{e}) out of range")
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
        letters = _parse_word(word)
        for color, x in letters:
            if color == BLUE:
                if not 0 <= x < self.n_blue:
                    raise IdOutOfRangeError(f"blue id {x} out of range")
            elif not 0 <= x < self.n_red:
                raise IdOutOfRangeError(f"red id {x} out of range")
        return _blue_first(self, letters)

    def path_count(self, degree) -> int:
        degree = _as_degree(degree)
        return self.n_blue**degree.n1 * self.n_red**degree.n2

    def check_path_cap(self, degree, cap: int) -> None:
        """Raise SizeLimitError if the paths of ``degree`` outnumber ``cap``.

        A cap below 1 is an input error (BadRangeError), not a cap hit:
        it would turn every bounded search into ``unknown``.
        """
        if cap < 1:
            raise BadRangeError(f"path cap must be at least 1, got {cap}")
        count = self.path_count(degree)
        if count > cap:
            raise SizeLimitError(
                f"{count} paths of degree {tuple(degree)} exceed cap {cap}"
            )

    def _paths(self, degree: "Degree", cap: int = DEFAULT_PATH_CAP) -> tuple:
        cached = self._paths_cache.get(degree)
        if cached is not None:
            return cached
        if not degree.is_valid():
            raise BadRangeError(f"negative degree {degree}")
        self.check_path_cap(degree, cap)
        paths = tuple(
            Path(self, blues, reds)
            for blues in itertools.product(range(self.n_blue), repeat=degree.n1)
            for reds in itertools.product(range(self.n_red), repeat=degree.n2)
        )
        self._paths_cache[degree] = paths
        return paths

    def enumerate_paths(self, degree, cap: int = DEFAULT_PATH_CAP) -> list:
        """All paths of the given degree in lexicographic word order."""
        degree = _as_degree(degree)
        paths = self._paths(degree, cap)
        # _paths skips the cap on a memo hit, so check it here
        self.check_path_cap(degree, cap)
        return list(paths)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {"n1": self.n_blue, "n2": self.n_red, "theta": self.theta_rows()}

    @classmethod
    def from_json(cls, obj: Mapping) -> "TwoGraph":
        """Build a graph from its JSON spec, naming the field of any malformed value."""
        if not isinstance(obj, Mapping):
            raise GraphError(f"graph JSON must be an object, got {type(obj).__name__}")
        try:
            n1, n2, rows = obj["n1"], obj["n2"], obj["theta"]
        except KeyError as exc:
            raise GraphError(f"missing key {exc} in graph JSON") from exc
        for name, value in (("n1", n1), ("n2", n2)):
            if type(value) is not int:
                raise GraphError(f"{name} must be an integer, got {value!r}")
        if not isinstance(rows, list):
            raise GraphError(f"theta must be a list of rows, got {type(rows).__name__}")
        for i, row in enumerate(rows):
            if not (
                isinstance(row, list)
                and len(row) == 4
                and all(type(x) is int for x in row)
            ):
                raise GraphError(
                    f"theta row {i} must be 4 integers [e, f, f2, e2], got {row!r}"
                )
        return cls(n1, n2, rows)

    @classmethod
    def from_file(cls, path: str) -> "TwoGraph":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))


def _parse_word(word) -> list:
    if isinstance(word, str):
        letters = []
        for token in word.replace(",", " ").replace(".", " ").split():
            try:
                letters.append((_COLOR_OF_CHAR[token[0]], int(token[1:])))
            except (KeyError, ValueError):
                raise PatternMismatchError(f"bad letter {token!r}") from None
        return letters
    return [(BLUE if int(c) == BLUE else RED, int(x)) for c, x in word]


def _parse_pattern(pattern) -> list:
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
    return [int(c) for c in pattern]


class Path:
    """A path stored as its blue-first normal form word.

    Two paths are equal exactly when their normal-form words (and
    graphs) agree.  Instances are immutable and hashable.
    """

    __slots__ = ("graph", "blues", "reds", "_hash")

    def __init__(self, graph: TwoGraph, blues: Sequence[int], reds: Sequence[int]):
        self.graph = graph
        self.blues = tuple(blues)
        self.reds = tuple(reds)
        for e in self.blues:
            if not 0 <= e < graph.n_blue:
                raise IdOutOfRangeError(f"blue id {e} out of range")
        for f in self.reds:
            if not 0 <= f < graph.n_red:
                raise IdOutOfRangeError(f"red id {f} out of range")
        self._hash = hash((self.blues, self.reds))

    @property
    def degree(self) -> Degree:
        return Degree(len(self.blues), len(self.reds))

    def word(self) -> list:
        """The normal-form word as ``(color, id)`` pairs."""
        return [(BLUE, e) for e in self.blues] + [(RED, f) for f in self.reds]

    def pretty(self) -> str:
        if not self.blues and not self.reds:
            return "e"
        return " ".join(_CHAR_OF_COLOR[c] + str(x) for c, x in self.word())

    def __repr__(self) -> str:
        return f"Path({self.pretty()!r})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Path)
            and self.blues == other.blues
            and self.reds == other.reds
            and (self.graph is other.graph or self.graph == other.graph)
        )

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "Path") -> bool:
        return (self.degree, self.blues, self.reds) < (
            other.degree,
            other.blues,
            other.reds,
        )

    # -- refactorization ---------------------------------------------------

    def reorder(self, pattern) -> list:
        """The unique representative word matching a color pattern.

        The pattern must contain exactly as many blue and red letters as
        the degree of the path; the result is a list of ``(color, id)``
        pairs.  The representative does not depend on the order in which
        the adjacent swaps are performed (factorization property).
        """
        pattern = _parse_pattern(pattern)
        if pattern.count(BLUE) != len(self.blues) or pattern.count(RED) != len(
            self.reds
        ):
            raise PatternMismatchError(
                f"pattern does not match degree {tuple(self.degree)}"
            )
        colors = [BLUE] * len(self.blues) + [RED] * len(self.reds)
        ids = list(self.blues + self.reds)
        _rearrange(self.graph, colors, ids, pattern)
        return list(zip(colors, ids))

    def split(self, at) -> tuple:
        """Split into (prefix of degree ``at``, remaining suffix)."""
        at = _as_degree(at)
        d = self.degree
        if not (at.is_valid() and at.leq(d)):
            raise BadRangeError(f"cannot split degree {tuple(d)} at {tuple(at)}")
        pattern = (
            [BLUE] * at.n1
            + [RED] * at.n2
            + [BLUE] * (d.n1 - at.n1)
            + [RED] * (d.n2 - at.n2)
        )
        colors = [BLUE] * d.n1 + [RED] * d.n2
        ids = list(self.blues + self.reds)
        _rearrange(self.graph, colors, ids, pattern)
        cut = at.n1 + at.n2
        head = Path(self.graph, ids[: at.n1], ids[at.n1 : cut])
        tail = Path(
            self.graph, ids[cut : cut + d.n1 - at.n1], ids[cut + d.n1 - at.n1 :]
        )
        return head, tail

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
        graph = self.graph
        key = (self.blues, self.reds, other.blues, other.reds)
        cached = graph._compose_cache.get(key)
        if cached is not None:
            return cached
        result = _blue_first(graph, self.word() + other.word())
        graph._compose_cache[key] = result
        return result

    __mul__ = compose

    def strip_prefix(self, prefix: "Path"):
        """The suffix ``s`` with ``self == prefix * s``, or None."""
        if not prefix.degree.leq(self.degree):
            return None
        head, tail = self.split(prefix.degree)
        return tail if head == prefix else None


def _extensions(graph: TwoGraph, nu: Path, alpha: Path) -> tuple:
    """Minimal common extensions: pairs (z, x) with nu*z == alpha*x.

    Both extensions reach degree join(d(nu), d(alpha)).  Results are
    cached on the graph; the side with the smaller extension count is
    enumerated.
    """
    key = (nu.blues, nu.reds, alpha.blues, alpha.reds)
    cached = graph._ext_cache.get(key)
    if cached is not None:
        return cached
    d_nu, d_al = nu.degree, alpha.degree
    if d_nu == d_al:
        empty = Path(graph, (), ())
        result = ((empty, empty),) if nu == alpha else ()
        graph._ext_cache[key] = result
        return result
    top = d_nu.join(d_al)
    out = []
    if graph.path_count(top - d_nu) <= graph.path_count(top - d_al):
        for tail in graph._paths(top - d_nu):
            rest = (nu * tail).strip_prefix(alpha)
            if rest is not None:
                out.append((tail, rest))
    else:
        for tail in graph._paths(top - d_al):
            rest = (alpha * tail).strip_prefix(nu)
            if rest is not None:
                out.append((rest, tail))
    result = tuple(out)
    graph._ext_cache[key] = result
    return result


def _blue_first(graph: TwoGraph, letters: list) -> Path:
    """The path of a word of ``(color, id)`` letters, in blue-first form."""
    colors = [c for c, _ in letters]
    ids = [x for _, x in letters]
    n1 = colors.count(BLUE)
    _rearrange(graph, colors, ids, [BLUE] * n1 + [RED] * (len(ids) - n1))
    return Path(graph, ids[:n1], ids[n1:])


def _rearrange(graph: TwoGraph, colors: list, ids: list, pattern: Sequence[int]):
    """Reorder ``colors``/``ids`` in place to match ``pattern``.

    Greedy left-to-right: the first letter of the wanted color is
    bubbled into place by adjacent swaps through the commutation rule.
    """
    fwd = graph._fwd
    inv = graph._inv
    n_red = graph.n_red
    n_blue = graph.n_blue
    for k, want in enumerate(pattern):
        if colors[k] == want:
            continue
        j = k + 1
        while colors[j] != want:
            j += 1
        # letters in [k, j) all have the other color
        for i in range(j, k, -1):
            if colors[i - 1] == BLUE:
                ff, ee = fwd[ids[i - 1] * n_red + ids[i]]
                colors[i - 1] = RED
                ids[i - 1] = ff
                colors[i] = BLUE
                ids[i] = ee
            else:
                ee, ff = inv[ids[i - 1] * n_blue + ids[i]]
                colors[i - 1] = BLUE
                ids[i - 1] = ee
                colors[i] = RED
                ids[i] = ff


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
