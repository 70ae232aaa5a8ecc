"""Stack segments viewed as transformers on sets of control states.

A triple (p, X, q) is recorded when the process can start in control p with
the single symbol X on the stack and eventually pop everything, ending in
control q.  Longer segments compose these single-symbol effects.  Alongside
the relation we keep, per triple, the length of the shortest derivation that
realizes it; the table's ``bound`` is the largest of those lengths, so every
recorded endpoint is reachable within ``bound`` steps.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import InputError


@dataclass(frozen=True)
class TransformerTable:
    """Single-symbol emptying triples with shortest-derivation lengths."""

    controls: frozenset
    alphabet: frozenset
    triples: frozenset  # (control, symbol, end control)
    shortest: tuple     # sorted (((control, symbol, end), steps), ...)
    bound: int

    def pop_floors(self):
        """symbol -> fewest steps that pop it, over all start and end controls.

        Symbols without any triple are absent: they are never popped.
        """
        floors = {}
        for ((_, symbol, _), steps) in self.shortest:
            floors[symbol] = min(steps, floors.get(symbol, steps))
        return floors


def _chain_costs(start, word, dist):
    """Cheapest ways to empty ``word`` starting in ``start``: end -> cost."""
    costs = {start: 0}
    for sym in word:
        nxt = {}
        for (p, c) in costs.items():
            for ((p1, s1, q1), d) in dist.items():
                if p1 == p and s1 == sym:
                    if q1 not in nxt or c + d < nxt[q1]:
                        nxt[q1] = c + d
        costs = nxt
        if not costs:
            break
    return costs


def compute_transformers(pda):
    """The emptying relation of a pda, with exact shortest-derivation bound.

    Fixpoint over the rules: a rule p X -a-> q alpha contributes (p, X, r)
    whenever alpha can be emptied from q ending in r, at cost one plus the
    cost of emptying alpha.  Iteration stops when no cost improves.
    """
    dist = {}
    changed = True
    while changed:
        changed = False
        for rule in pda.rules:
            chains = _chain_costs(rule.target, rule.push, dist)
            for (end, cost) in chains.items():
                key = (rule.control, rule.symbol, end)
                total = 1 + cost
                if key not in dist or total < dist[key]:
                    dist[key] = total
                    changed = True
    bound = max(dist.values(), default=0)
    return TransformerTable(
        controls=pda.controls,
        alphabet=pda.stack_alphabet,
        triples=frozenset(dist),
        shortest=tuple(sorted(dist.items())),
        bound=bound,
    )


@functools.lru_cache(maxsize=None)
def cached_transformers(pda):
    return compute_transformers(pda)


def apply_set_transformer(table, controls, word):
    """The image of a control-state set under a stack segment.

    Folds the single-symbol relation over the word: the result is every
    control reachable by emptying the whole segment from some member.
    Monotone in ``controls``.
    """
    current = frozenset(controls)
    for c in current:
        if c not in table.controls:
            raise InputError("undeclared control state %r" % (c,))
    for sym in word:
        if sym not in table.alphabet:
            raise InputError("undeclared stack symbol %r" % (sym,))
        current = frozenset(
            q for (p, s, q) in table.triples if s == sym and p in current
        )
        if not current:
            break
    return current


@dataclass(frozen=True)
class PeriodIteration:
    """Iterated images of a repeated stack period.

    ``sets[0]`` is the image of the top symbol alone; each later entry is the
    previous one pushed through one more copy of the period.  Since the sets
    live in a finite lattice the sequence repeats; ``preperiod`` is the index
    whose value first recurs, ``cycle_length`` the distance to its first
    recurrence, and ``cycle_set`` the set at the cycle entry.
    """

    sets: tuple
    preperiod: int
    cycle_length: int
    cycle_set: frozenset


def period_iteration(table, control, top, period):
    """Iterate a stack period until its control-set image repeats."""
    period = tuple(period)
    if not period:
        raise InputError("period must be non-empty")
    first = apply_set_transformer(table, frozenset([control]), (top,))
    sets = [first]
    seen = {first: 0}
    while True:
        nxt = apply_set_transformer(table, sets[-1], period)
        if nxt in seen:
            b = seen[nxt]
            j = len(sets)
            return PeriodIteration(
                sets=tuple(sets),
                preperiod=b,
                cycle_length=j - b,
                cycle_set=sets[b],
            )
        seen[nxt] = len(sets)
        sets.append(nxt)
