"""Power-map dynamics on compact abelian groups, exact where decidable.

Four families are supported: finite abelian groups given by invariant
factors, torus groups of a given rank, solenoids given by how often
each prime repeats in the defining sequence, and the p-adic integer
groups.  Kernel sizes of the power endomorphisms are closed-form in
all four; the averaging transfer operator is evaluated exactly on
finite groups; connectedness and torsion facts feed a classification
verdict for the associated crossed product.
"""

from __future__ import annotations

import functools
import math
import operator
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .graphs import GroupError, _is_decimal


class TableSizeError(GroupError):
    """A value table does not cover the whole group."""


# Miller-Rabin on the primes up to 41 decides primality exactly below
# this bound (Sorenson and Webster, "Strong pseudoprimes to twelve prime
# bases", 2017).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_LIMIT = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Whether n is prime, by deterministic Miller-Rabin.

    The answer is exact below ``_PRIME_LIMIT``; larger values are refused.
    """
    if n >= _PRIME_LIMIT:
        raise GroupError(
            f"cannot decide whether {n} is prime: primality is decided "
            f"only below {_PRIME_LIMIT}"
        )
    if n < 2:
        return False
    for p in _PRIME_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _int(key: str, value) -> int:
    if type(value) is not int:
        raise GroupError(f"{key} must be an integer, got {value!r}")
    return value


def _ints(key: str, value) -> tuple:
    if not isinstance(value, (list, tuple)) or any(type(v) is not int for v in value):
        raise GroupError(f"{key} must be a list of integers, got {value!r}")
    return tuple(value)


@dataclass(frozen=True)
class FiniteAbelian:
    """Finite abelian group as a product of invariant factors d1 | d2 | ..."""

    factors: tuple

    def __init__(self, factors: Sequence[int]):
        factors = _ints("factors", factors)
        for d in factors:
            if d < 1:
                raise GroupError(f"invariant factor {d} < 1")
        for prev, nxt in zip(factors, factors[1:]):
            if nxt % prev != 0:
                raise GroupError(f"{prev} does not divide {nxt}")
        object.__setattr__(self, "factors", factors)

    @property
    def order(self) -> int:
        return math.prod(self.factors)


@dataclass(frozen=True)
class Torus:
    """The rank-l torus."""

    rank: int

    def __post_init__(self):
        if _int("rank", self.rank) < 1:
            raise GroupError("torus rank must be positive")


@dataclass(frozen=True)
class Solenoid:
    """A solenoid described by prime multiplicities.

    ``finite`` maps primes to their finite repeat counts in the
    defining sequence; ``infinite`` lists the primes that repeat
    forever.  Only the split between the two matters for any quantity
    computed here.
    """

    finite: tuple
    infinite: tuple

    def __init__(self, finite=(), infinite=()):
        try:
            counts = dict(finite)
        except (TypeError, ValueError):
            counts = None
        if counts is None or any(
            type(p) is not int or type(m) is not int for p, m in counts.items()
        ):
            raise GroupError(
                f"finite must map primes to integer multiplicities, got {finite!r}"
            )
        finite = tuple(sorted(counts.items()))
        infinite = tuple(sorted(_ints("infinite", infinite)))
        for p, m in finite:
            if not _is_prime(p):
                raise GroupError(f"{p} is not prime")
            if m < 1:
                raise GroupError(f"multiplicity of {p} must be positive")
        for p in infinite:
            if not _is_prime(p):
                raise GroupError(f"{p} is not prime")
        if {p for p, _ in finite} & set(infinite):
            raise GroupError("a prime cannot be both finite and infinite")
        object.__setattr__(self, "finite", finite)
        object.__setattr__(self, "infinite", infinite)


@dataclass(frozen=True)
class Padic:
    """The additive group of p-adic integers."""

    prime: int

    def __post_init__(self):
        if not _is_prime(_int("p", self.prime)):
            raise GroupError(f"{self.prime} is not prime")


GroupSpec = Union[FiniteAbelian, Torus, Solenoid, Padic]


# -- kernel arithmetic ---------------------------------------------------------


def ker_size(group: GroupSpec, a: int) -> int:
    """Size of the kernel of the a-th power map.

    Finite groups count solutions componentwise; tori give a^rank;
    solenoids give the part of a coprime to the forever-recurring
    primes; p-adic power maps are injective.  ``a`` must be an int (not
    a bool) of at least 1.
    """
    if _int("a", a) < 1:
        raise GroupError(f"exponent a must be at least 1, got {a}")
    if isinstance(group, FiniteAbelian):
        return math.prod(math.gcd(a, d) for d in group.factors)
    if isinstance(group, Torus):
        return a**group.rank
    if isinstance(group, Solenoid):
        b = a
        for p in group.infinite:
            while b % p == 0:
                b //= p
        return b
    if isinstance(group, Padic):
        return 1
    raise GroupError(f"unsupported group {group!r}")


# -- conditions on the endomorphism system ------------------------------------

HOLDS = "holds"
FAILS = "fails"
HOLDS_ON_RANGE = "holds-on-tested-range"


@dataclass(frozen=True)
class ConditionVerdict:
    status: str
    witness: Optional[tuple] = None
    detail: str = ""

    def to_json(self) -> dict:
        out = {"status": self.status}
        if self.witness is not None:
            out["witness"] = list(self.witness)
        if self.detail:
            out["detail"] = self.detail
        return out


@dataclass(frozen=True)
class ConditionReport:
    """Verdicts for finite image index, finite kernels, and kernel
    multiplicativity of the power maps."""

    finite_index: ConditionVerdict
    finite_kernels: ConditionVerdict
    multiplicative_kernels: ConditionVerdict

    def to_json(self) -> dict:
        return {
            "G1": self.finite_index.to_json(),
            "G2": self.finite_kernels.to_json(),
            "G3": self.multiplicative_kernels.to_json(),
        }


_CONNECTED_DIVISIBLE = {
    "connected": True,
    "torsion_interior_empty": True,
    "verdict": "purely infinite and simple",
    "citation": "connected-divisible-simplicity",
    "verdict_computed": True,
}
_ONTO = "divisible: power maps are onto"

# The kinds whose facts are closed-form and hold for every exponent: the
# G1-G3 details (all three hold), then the classification fields.
_CLOSED_FORM = {
    Torus: (
        (_ONTO, "kernel size a^rank is finite", "(ab)^rank = a^rank b^rank"),
        _CONNECTED_DIVISIBLE,
    ),
    Solenoid: (
        (
            _ONTO,
            "kernel size is a finite divisor",
            "the part coprime to the recurring primes is multiplicative",
        ),
        _CONNECTED_DIVISIBLE,
    ),
    Padic: (
        ("index p^v(a) is finite", "power maps are injective", "all kernels are trivial"),
        {
            "connected": False,
            "torsion_interior_empty": True,
            "verdict": (
                "not simple: the functions vanishing at zero generate a "
                "proper ideal (compacts tensored with a simple AT-algebra "
                "of real rank zero with unique trace) with commutative "
                "quotient; reported from the literature, not computed"
            ),
            "citation": "padic-ideal-structure",
            "verdict_computed": False,
        },
    ),
}


def _closed_form(group) -> tuple:
    try:
        return _CLOSED_FORM[type(group)]
    except KeyError:
        raise GroupError(f"unsupported group {group!r}") from None


def check_conditions(group: GroupSpec, bound: int = 12) -> ConditionReport:
    """Evaluate the three system conditions.

    Tori, solenoids and p-adic groups get exact closed-form verdicts
    valid for every exponent.  Finite groups always have finite index
    and kernels; multiplicativity is checked over all pairs a, b in
    1..``bound``, in lexicographic order, and reported with the first
    failing pair as witness.  Only 1..min(bound, d_k) is scanned, d_k the
    largest invariant factor: the kernel size of n depends only on n mod
    d_k, so the first failing pair lies there.  Each kernel size, of an
    exponent or of a product, is computed once per call, when the scan
    first needs it.  ``bound`` must be an int (not a bool) of at least 1:
    an empty range would read as a multiplicativity result.
    """
    if _int("bound", bound) < 1:
        raise GroupError(f"test range {range(1, bound + 1)!r} has no exponents")
    if isinstance(group, FiniteAbelian):
        g1 = ConditionVerdict(HOLDS, detail="finite group: every index is finite")
        g2 = ConditionVerdict(HOLDS, detail="finite group: every kernel is finite")
        sizes: dict = {}

        def size(n: int) -> int:
            if n not in sizes:
                sizes[n] = ker_size(group, n)
            return sizes[n]

        scan = range(1, min(bound, max(group.factors, default=1)) + 1)
        for a in scan:
            ker_a = size(a)
            for b in scan:
                if size(a * b) != ker_a * size(b):
                    g3 = ConditionVerdict(FAILS, witness=(a, b))
                    return ConditionReport(g1, g2, g3)
        span = f"all pairs with a, b in 1..{bound}"
        return ConditionReport(g1, g2, ConditionVerdict(HOLDS_ON_RANGE, detail=span))
    details, _ = _closed_form(group)
    return ConditionReport(*(ConditionVerdict(HOLDS, detail=d) for d in details))


# -- transfer operators on finite groups ---------------------------------------


def _power_index(group: FiniteAbelian, a: int) -> tuple:
    """The power map x -> a*x in the terms of :func:`_fibre_sums`:
    ``(lines, d, g, order)``.

    Tables list the group in mixed radix, the first invariant factor
    most significant, so a table is a run of lines: one line of d values,
    d the last invariant factor, for each point of the other factors.
    The power map sends line x to line ``lines[x]`` (a*x in the other
    factors; one line for a cyclic group), built one invariant factor at
    a time as the table orders them.  Inside a line, on Z/d, with
    g = gcd(a, d) and m = d/g, the kernel is the multiples of m, so the
    fibre over a point of the image is a coset x0 + (multiples of m) with
    0 <= x0 < m, and that point is g*t with t = (a/g)*x0 mod m;
    ``order[t]`` is that x0.  As a/g is prime to m, its multiples mod m
    fall in runs of stride a/g mod m, one per wrap past m, so ``order``
    is laid out with a/g mod m slices, one when a/g = 1 mod m, as for a
    trivial kernel.
    """
    *others, d = group.factors or (1,)
    lines = [0]
    for e in others:
        place = [a * x % e for x in range(e)]
        lines = [i * e + y for i in lines for y in place]
    g = math.gcd(a, d)
    m = d // g
    step = a // g % m or 1
    order = [0] * m
    for c in range(step):
        # the x0 in [lo, hi) go past m c times and land at step*x0 - c*m
        lo, hi = -(-c * m // step), -(-(c + 1) * m // step)
        order[step * lo - c * m::step] = range(lo, hi)
    return lines, d, g, order


def _fibre_sums(values: list, lines: list, d: int, g: int, order: list) -> list:
    """The sum of ``values`` over each fibre of the power map, at the
    fibre's image point, and 0 off the image, from the group's
    :func:`_power_index`.

    Whole lines are added where the other factors send them, one Python
    step per line.  Inside each line that something reached, the g
    blocks of m values are added elementwise (pairwise when the blocks
    are longer than they are many, and by columns otherwise), so the
    fibre of x0 lands at x0; one lookup through ``order`` puts the m
    sums in image order and one slice spreads them over every g-th
    place.  No step of this is taken per entry, and a cyclic group is
    one line.
    """
    m = len(order)
    moved = [None] * len(lines)
    for target, start in zip(lines, range(0, len(values), d)):
        line = values[start:start + d]
        moved[target] = line if moved[target] is None else _add(moved[target], line)
    out = []
    for line in moved:
        spread = [0] * d
        if line is not None:
            blocks = [line[i:i + m] for i in range(0, d, m)]
            fibres = list(map(sum, zip(*blocks))) if g > m else functools.reduce(_add, blocks)
            spread[::g] = map(fibres.__getitem__, order)
        out += spread
    return out


def _add(left: list, right: list) -> list:
    return list(map(operator.add, left, right))


def transfer_eval(group: FiniteAbelian, a: int, table: Sequence, *, _text: bool = False) -> list:
    """Average a value table over power-map preimages, exactly.

    The output value at a point of the image subgroup is the mean of
    the inputs over its preimages; points off the image get zero.
    Tables list the elements in mixed radix, the first invariant factor
    most significant.  Each entry must be a rational (an int, a Fraction
    or a string like "1/2"); floats and booleans are rejected, and so is
    an exponent ``a`` that is not an int, as in :func:`ker_size`.  The
    table's size is checked against the order first, so a short table
    never costs work in the size of a large group, and the exponent next.
    Each distinct entry is parsed once per call into an integer ratio
    (see :func:`_table_values`) and scaled once to a numerator over
    the lcm of the denominators; the sums are taken in integers, one
    fibre at a time (see :func:`_fibre_sums`), over one denominator, the
    lcm times the kernel size.  Each distinct sum becomes one Fraction,
    shared by every output equal to it.

    The private keyword ``_text=True`` is for the CLI: each distinct sum
    becomes instead the text ``str`` gives its Fraction, written from
    the sum and the denominator over their gcd (see :func:`_ratio_texts`),
    and no Fraction is built.  A value with more digits than the
    interpreter converts to text raises ValueError, as ``str`` of its
    Fraction does.
    """
    _int("a", a)
    if not isinstance(group, FiniteAbelian):
        raise GroupError("transfer tables only make sense on finite groups")
    if isinstance(table, str) or not isinstance(table, Sequence):
        raise GroupError(f"table must be a list of rationals, got {table!r}")
    if len(table) != group.order:
        raise TableSizeError(f"table has {len(table)} entries, group has {group.order}")
    kernel = ker_size(group, a)
    keys, ratios = _table_values(table)
    scale = math.lcm(*{den for _, den in ratios.values()})
    scaled = {key: num * (scale // den) for key, (num, den) in ratios.items()}
    sums = _fibre_sums(list(map(scaled.__getitem__, keys)), *_power_index(group, a))
    denominator = scale * kernel
    if _text:
        shared = _ratio_texts(set(sums), denominator)
    else:
        shared = {s: Fraction(s, denominator) for s in set(sums)}
    return list(map(shared.__getitem__, sums))


def _ratio_texts(nums, den: int) -> dict:
    """``str(Fraction(num, den))`` for each of ``nums``, keyed by num, for a
    positive ``den``, without the Fractions.  The sums share ``den``, so
    the few reduced denominators are each written once."""
    tails: dict = {}
    texts = {}
    for num in nums:
        g = math.gcd(num, den)
        tail = tails.get(g)
        if tail is None:
            tail = tails[g] = "" if g == den else f"/{den // g}"
        texts[num] = str(num // g) + tail
    return texts


# An entry in its plainest spelling: an optional sign, ASCII digits and an
# optional denominator of ASCII digits.  Fraction reads each such string as
# the same ratio, unless the denominator is zero or a part has more digits
# than the interpreter converts; Fraction refuses those too.
_PLAIN_RATIO = re.compile(r"([-+]?[0-9]+)(?:/([0-9]+))?")


def _table_values(table: Sequence) -> tuple:
    """The entries of ``table`` as integer ratios, checked in table order.

    Returns the key of each entry, in table order, and a dict from key to
    ``(numerator, denominator)`` with a positive denominator, not
    always reduced: the sums are taken over one common denominator and
    reduced only when they are written.
    An int or a string is its own key, so each distinct one is parsed
    once per call, and a table of only ints and strings is its own key
    list.  Every other entry gets the key ``(position,)`` and is parsed
    where it stands, so a ``True`` is never served the entry of ``1``.
    Distinct keys are parsed in order of first occurrence, so the first
    that fails is the first bad entry of the table; its position is
    looked up only then.
    """
    if set(map(type, table)) <= {int, str}:
        keys = table
    else:
        keys = [
            entry if type(entry) is int or type(entry) is str else (position,)
            for position, entry in enumerate(table)
        ]
    ratios: dict = {}
    for key in dict.fromkeys(keys):
        entry = table[key[0]] if type(key) is tuple else key
        ratio = (entry, 1) if type(entry) is int else _ratio(entry)
        if ratio is None:
            raise GroupError(f"table entry {keys.index(key)} is not a rational: {entry!r}")
        ratios[key] = ratio
    return keys, ratios


def _ratio(entry) -> Optional[tuple]:
    """One non-int entry as a ``(numerator, denominator)`` pair with a
    positive denominator, or None if it is not an exact rational.

    A string in the plainest spelling is read with two int conversions;
    everything else, and any such string whose digits or denominator
    Fraction would refuse, goes through :func:`_exact`, so both routes
    accept and reject alike.
    """
    match = type(entry) is str and _PLAIN_RATIO.fullmatch(entry)
    if match:
        try:
            num, den = int(match[1]), int(match[2] or 1)
        except ValueError:  # more digits than the interpreter converts
            pass
        else:
            if den:
                return num, den
    value = _exact(entry)
    return None if value is None else (value.numerator, value.denominator)


# The exponent of a decimal string such as "2.5e-3", as Fraction reads it.
_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)\s*\Z")


def _exact(value) -> Optional[Fraction]:
    """A table entry as an exact rational, or None.

    Floats (and booleans) are refused rather than read through their
    binary expansion: JSON ``0.1`` is not the rational 1/10.  So is a
    zero denominator, and a decimal exponent larger in magnitude than
    the interpreter's limit on digits in an int-to-str conversion
    (``sys.get_int_max_str_digits()``, where 0 means no limit), which
    Fraction would expand to a power of ten before anything could
    refuse it.
    """
    if isinstance(value, (bool, float)) or _huge_exponent(value):
        return None
    try:
        return Fraction(value)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        return None


def _huge_exponent(value) -> bool:
    limit = sys.get_int_max_str_digits()
    match = isinstance(value, str) and limit and _EXPONENT.search(value)
    if not match:
        return False
    digits = match[1].replace("_", "").lstrip("0")
    return len(digits) > len(str(limit)) or int(digits or "0") > limit


# -- classification -------------------------------------------------------------


@dataclass(frozen=True)
class SystemReport:
    """Full report: conditions, topology facts, and the final verdict."""

    group: GroupSpec
    conditions: ConditionReport
    connected: bool
    torsion_interior_empty: bool
    verdict: str
    citation: str
    verdict_computed: bool

    def to_json(self) -> dict:
        return {
            "group": group_to_json(self.group),
            "conditions": self.conditions.to_json(),
            "connected": self.connected,
            "torsion_interior_empty": self.torsion_interior_empty,
            "verdict": self.verdict,
            "citation": self.citation,
            "verdict_computed": self.verdict_computed,
        }


def classify(group: GroupSpec, bound: int = 12) -> SystemReport:
    """Classification verdict for the crossed product over the group.

    Connected groups with finite kernels and sparse torsion give purely
    infinite simple crossed products.  Finite groups are all torsion,
    so the density criterion fails and no simplicity claim is made.
    The p-adic verdict records the known ideal structure as a
    literature fact rather than a computation.  ``bound`` is passed to
    :func:`check_conditions`.
    """
    conditions = check_conditions(group, bound)
    if isinstance(group, FiniteAbelian):
        return SystemReport(
            group=group,
            conditions=conditions,
            connected=group.order == 1,
            torsion_interior_empty=False,
            verdict=(
                "torsion group: infinite-order points are not dense, the "
                "aperiodicity criterion fails; no simplicity claim"
            ),
            citation="torsion-obstruction",
            verdict_computed=True,
        )
    _, fields = _closed_form(group)
    return SystemReport(group=group, conditions=conditions, **fields)


# -- serialization ---------------------------------------------------------------


def group_to_json(group: GroupSpec) -> dict:
    if isinstance(group, FiniteAbelian):
        return {"kind": "finite", "factors": list(group.factors)}
    if isinstance(group, Torus):
        return {"kind": "torus", "rank": group.rank}
    if isinstance(group, Solenoid):
        return {
            "kind": "solenoid",
            "finite": {str(p): m for p, m in group.finite},
            "infinite": list(group.infinite),
        }
    if isinstance(group, Padic):
        return {"kind": "padic", "p": group.prime}
    raise GroupError(f"unsupported group {group!r}")


def _field(obj: dict, key: str):
    try:
        return obj[key]
    except KeyError:
        raise GroupError(f"missing key {key!r} in group JSON") from None


def _prime_counts(finite) -> dict:
    """A solenoid's ``finite`` field as ints: each key must be written in
    ASCII decimal digits, name a prime no other key names, and map to an
    integer multiplicity."""
    if not isinstance(finite, dict) or not all(
        _is_decimal(str(p)) and type(m) is int for p, m in finite.items()
    ):
        raise GroupError(
            f"finite must map primes to integer multiplicities, got {finite!r}"
        )
    try:
        primes = [int(p) for p in finite]
    except ValueError as exc:  # more digits than the interpreter converts
        raise GroupError(f"finite has a prime too long to read: {exc}") from None
    spelling: dict = {}
    for prime, key in zip(primes, finite):
        if prime in spelling:
            raise GroupError(
                f"finite names the prime {prime} twice: {spelling[prime]!r} and {key!r}"
            )
        spelling[prime] = key
    return dict(zip(primes, finite.values()))


def group_from_json(obj: dict) -> GroupSpec:
    """Build a group from its JSON spec, naming the field of any malformed value."""
    if not isinstance(obj, dict):
        raise GroupError(f"group JSON must be an object, got {type(obj).__name__}")
    kind = obj.get("kind")
    if kind == "finite":
        return FiniteAbelian(_field(obj, "factors"))
    if kind == "torus":
        return Torus(_field(obj, "rank"))
    if kind == "solenoid":
        return Solenoid(_prime_counts(obj.get("finite", {})), obj.get("infinite", []))
    if kind == "padic":
        return Padic(_field(obj, "p"))
    raise GroupError(f"unknown group kind {kind!r}")
