"""What a workload is made of: passes of jobs, each with its own check."""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Dict, List, Optional, Sequence

from algebra import SPoly


@dataclass
class Job:
    """One timed call into mfc.

    ``prepare`` (untimed) builds inputs that depend on earlier jobs of
    the pass, ``run`` is the timed call, ``check`` returns True when the
    output is right.  ``control`` applies the check to a perturbed output
    and must return False; it runs on the first pass.  ``known_fault``
    marks an operation that fails today because of a named fault in mfc:
    its failures are counted, not treated as wrong output.
    """
    cls: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]
    prepare: Optional[Callable[[], None]] = None
    control: Optional[Callable[[Any], bool]] = None
    known_fault: bool = False


@dataclass
class Workload:
    name: str
    heavy: str
    light: str
    trace_passes: int
    # build(api, rng, pass_no, state) -> jobs of one pass; its mfc calls
    # are the input building that set-up time covers for pass 0.
    build: Callable[[Any, random.Random, int, Dict], List[Job]]
    # controls(api, state) -> list of (name, rejected) for negative
    # controls that need extra mfc calls (a perturbed S), run once per run.
    controls: Optional[Callable[[Any, Dict], List]] = None


def coeff(rng: random.Random, small: bool = False) -> Fraction:
    """A fresh nonzero rational with one-digit numerator and denominator."""
    num = rng.randint(1, 5 if small else 9) * rng.choice((-1, 1))
    return Fraction(num, rng.randint(1, 5 if small else 9))


def matrix(rng: random.Random, n: int, symmetric: bool = False) -> List[List[Fraction]]:
    m = [[coeff(rng) for _ in range(n)] for _ in range(n)]
    if symmetric:
        for i in range(n):
            for j in range(i):
                m[i][j] = m[j][i]
    return m


def plain(series) -> tuple:
    """An mfc series as (names, parities, terms) so checks need no mfc code."""
    chart = series.chart
    return (tuple(v.name for v in chart.variables),
            tuple(v.parity for v in chart.variables),
            dict(series.terms))


def bump(snapshot: tuple) -> tuple:
    """Perturb a plain series: change one coefficient (or add a term)."""
    names, parities, terms = snapshot
    terms = dict(terms)
    if terms:
        mono = max(terms)
        terms[mono] = terms[mono] + 1 or Fraction(1)
    else:
        terms[(0,) * len(names)] = Fraction(1)
    return names, parities, terms


def series_from(api, chart, order: int, terms: Dict[Sequence[str], Fraction]):
    """Build an mfc series from {tuple of factor names: coeff} on a chart.

    Factors may come in any order; odd ones are sorted with the Koszul
    sign, and a repeated odd factor drops the term.
    """
    poly = SPoly.from_factors([v.name for v in chart], chart.parities, terms)
    return api.superalg.SuperSeries(chart, poly.terms, order)
