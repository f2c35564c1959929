"""Doubling construction and the crossed-product simplicity report.

The doubled graph has one blue edge per ordered pair of blue edges and
one red edge per ordered pair of red edges of the source graph; its
commutation rule applies the source rule coordinatewise.  Simplicity of
the crossed product over the balanced-word core is equivalent to
aperiodicity of the doubled graph, and a simple crossed product is
automatically purely infinite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .graphs import DEFAULT_PATH_CAP, Path, TwoGraph
from .periodicity import (
    APERIODIC,
    NO_CANDIDATE_PAIRS,
    PERIODIC,
    PeriodicityVerdict,
    decide_periodicity,
    minimal_exponents,
)


class DoubledTwoGraph(TwoGraph):
    """A doubled graph plus provenance back to the source edge pairs.

    Doubled blue id of the pair (e, f) is ``e*N1 + f`` and doubled red
    id of (g, h) is ``g*N2 + h`` (row-major, fixed for serialization).
    """

    __slots__ = ("source",)

    def __init__(self, source: TwoGraph, theta) -> None:
        super().__init__(source.n_blue**2, source.n_red**2, theta)
        self.source = source

    def blue_pair(self, i: int) -> tuple:
        return divmod(i, self.source.n_blue)

    def red_pair(self, j: int) -> tuple:
        return divmod(j, self.source.n_red)

    def pretty_blue(self, i: int) -> str:
        e, f = self.blue_pair(i)
        return f"b{e}b{f}"

    def pretty_red(self, j: int) -> str:
        g, h = self.red_pair(j)
        return f"r{g}r{h}"

    def pretty_path(self, path: Path) -> str:
        """Path rendered in source edge-pair notation."""
        parts = [self.pretty_blue(i) for i in path.blues]
        parts += [self.pretty_red(j) for j in path.reds]
        return " ".join(parts) if parts else "e"

    def to_json(self) -> dict:
        out = super().to_json()
        out["provenance"] = {
            "source": self.source.to_json(),
            "blue_pairs": [list(self.blue_pair(i)) for i in range(self.n_blue)],
            "red_pairs": [list(self.red_pair(j)) for j in range(self.n_red)],
        }
        return out


def double(graph: TwoGraph) -> DoubledTwoGraph:
    """The doubled graph on length-two monochrome words.

    The pair ((e,f), (g,h)) commutes to the red pair of first letters
    followed by the blue pair of second letters of the rewritten words
    (e,g) and (f,h).
    """
    n1, n2 = graph.n_blue, graph.n_red
    rows = []
    for e in range(n1):
        for f in range(n1):
            blue_id = e * n1 + f
            for g in range(n2):
                for h in range(n2):
                    g2, e2 = graph.commute_blue_red(e, g)
                    h2, f2 = graph.commute_blue_red(f, h)
                    rows.append((blue_id, g * n2 + h, g2 * n2 + h2, e2 * n1 + f2))
    return DoubledTwoGraph(graph, rows)


@dataclass(frozen=True)
class CrossedProductReport:
    """Machine-readable simplicity verdict for the core crossed product."""

    n_blue: int
    n_red: int
    simple: Optional[bool]
    purely_infinite: Optional[bool]
    verdict: PeriodicityVerdict
    witness_pairs: tuple = ()

    def to_json(self) -> dict:
        out = {
            "n1": self.n_blue,
            "n2": self.n_red,
            "simple": self.simple,
            "purely_infinite": self.purely_infinite,
            "doubled_periodicity": self.verdict.to_json(),
        }
        if self.witness_pairs:
            out["witness_pairs"] = [list(row) for row in self.witness_pairs]
        return out


def crossed_product_report(
    graph: TwoGraph, kmax: int = 4, cap: int = DEFAULT_PATH_CAP
) -> CrossedProductReport:
    """Simplicity/pure-infiniteness verdict via the doubled graph.

    The exponent candidates coincide for the source and doubled counts
    (N1^a = N2^b iff (N1^2)^a = (N2^2)^b), so the bounded periodicity
    decision runs directly on the doubled graph.  Aperiodic or
    no-candidate outcomes give a simple, purely infinite crossed
    product; a periodic doubled graph gives a non-simple one.
    """
    # checked on the source, so a degenerate-count error names its counts
    minimal_exponents(graph.n_blue, graph.n_red)
    doubled = double(graph)
    verdict = decide_periodicity(doubled, kmax=kmax, cap=cap)
    if verdict.kind in (APERIODIC, NO_CANDIDATE_PAIRS):
        simple, pi = True, True
    elif verdict.kind == PERIODIC:
        simple, pi = False, None
    else:
        simple, pi = None, None
    witness_pairs = ()
    if verdict.witness is not None:
        witness_pairs = tuple(
            sorted(
                (doubled.pretty_path(mu), doubled.pretty_path(nu))
                for mu, nu in verdict.witness.pairing.items()
            )
        )
    return CrossedProductReport(
        n_blue=graph.n_blue,
        n_red=graph.n_red,
        simple=simple,
        purely_infinite=pi,
        verdict=verdict,
        witness_pairs=witness_pairs,
    )
