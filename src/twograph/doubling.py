"""Doubling construction and the crossed-product simplicity report.

The doubled graph has one blue edge per ordered pair of blue edges and
one red edge per ordered pair of red edges of the source graph; its
commutation rule applies the source rule coordinatewise.  Simplicity of
the crossed product over the balanced-word core is equivalent to
aperiodicity of the doubled graph, and a simple crossed product is
automatically purely infinite.

The report decides the double on the source graph.  A doubled path of
degree (a, b) is a pair of source paths and the doubled rule is the
source rule on each coordinate, so moving a red pair (f, f') through a
blue pair (w, w') moves f through w and f' through w'.  A doubled row
(w, w') thus has one head exactly when rows w and w' do, and its head
is the pair (Z[w], Z[w']); the word the pair (f, f') leaves behind is
(c_f(w), c_f'(w')), whose head is (Z[w][1:] f, Z[w'][1:] f') exactly
when each coordinate's is.  So the period check of ``periodicity.py``
holds on pairs exactly when it holds on each coordinate, that is on
the source, and the source's pair certificate rules out a period of
the double at every k; (N1^2)^a = (N2^2)^b exactly when N1^a = N2^b;
and the double's pairing is gamma x gamma: blue letters e_i*N1 + f_i
to red g_i*N2 + h_i.  The double itself is built only to write a
periodic witness: the cap counts doubled paths, (N1^2)^a of them, from
the source's N1.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple, Optional

from .graphs import DEFAULT_PATH_CAP, TwoGraph
from .periodicity import (
    APERIODIC,
    NO_CANDIDATE_PAIRS,
    PERIODIC,
    PeriodicityVerdict,
    decide_periodicity,
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
    (e,g) and (f,h).  The rows are listed in the order of their input
    pairs, blue id e*N1 + f then red id g*N2 + h, each read off the rows
    e and f of the source's ``_fwd``.
    """
    n1, n2, fwd = graph.n_blue, graph.n_red, graph._fwd
    # row e of _fwd holds the images (g2, e2) of (e, g), g = 0, 1, ...
    images = [fwd[e * n2:(e + 1) * n2] for e in range(n1)]
    rows = [
        (blue_id, red_id, g2 * n2 + h2, e2 * n1 + f2)
        for blue_id, (row_e, row_f) in enumerate(itertools.product(images, repeat=2))
        for red_id, ((g2, e2), (h2, f2)) in enumerate(itertools.product(row_e, row_f))
    ]
    return DoubledTwoGraph(graph, rows)


def _pair_word(color: str, pairs) -> str:
    """A doubled path in source edge-pair notation, such as ``b0b1 b1b1``."""
    return " ".join(f"{color}{x}{color}{y}" for x, y in pairs)


class CrossedProductReport(NamedTuple):
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

    The decision runs on the source and its witness is squared, but the
    cap counts doubled paths, as a periodic report lists N1^(2a) rows.
    Aperiodic or no-candidate outcomes give a simple, purely infinite
    crossed product; a periodic doubled graph gives a non-simple one.
    The doubled graph is built only for a periodic witness.
    """
    verdict = decide_periodicity(graph, kmax=kmax, cap=cap, _counted=graph.n_blue**2)
    if verdict.kind in (APERIODIC, NO_CANDIDATE_PAIRS):
        simple, pi = True, True
    elif verdict.kind == PERIODIC:
        simple, pi = False, None
    else:
        simple, pi = None, None
    witness_pairs = ()
    if verdict.witness is not None:
        doubled, w, square, rows = double(graph), verdict.witness, {}, []
        for (mu, nu), (mu2, nu2) in itertools.product(w.pairing.items(), repeat=2):
            blues, reds = tuple(zip(mu.blues, mu2.blues)), tuple(zip(nu.reds, nu2.reds))
            mu_mu2 = doubled.blue_path(*(e * graph.n_blue + f for e, f in blues))
            square[mu_mu2] = doubled.red_path(*(g * graph.n_red + h for g, h in reds))
            rows.append((_pair_word("b", blues), _pair_word("r", reds)))
        verdict = verdict._replace(witness=w._replace(pairing=square))
        witness_pairs = tuple(sorted(rows))
    return CrossedProductReport(
        n_blue=graph.n_blue,
        n_red=graph.n_red,
        simple=simple,
        purely_infinite=pi,
        verdict=verdict,
        witness_pairs=witness_pairs,
    )
