"""Stack segments viewed as transformers on sets of control states.

A triple (p, X, q) is recorded when the process can start in control p with
the single symbol X on the stack and eventually pop everything, ending in
control q.  Longer segments compose these single-symbol effects.  Alongside
the relation we keep, per triple, the length of the shortest derivation that
realizes it; the table's ``bound`` is the largest of those lengths, so every
recorded endpoint is reachable within ``bound`` steps.

``compute_transformers`` finds the triples and their exact shortest lengths
in one pass of Knuth's generalisation of Dijkstra's algorithm to grammar
derivations (IPL 1977): each triple is settled once, at its least cost.

Nothing here is cached across calls.  The table of a process is held by the
``PdaOracle`` of the analysis that reads it (``PdaOracle.table``, built on
first use), so it lives exactly as long as that analysis.
"""

from __future__ import annotations

import functools
import heapq
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

    @functools.cached_property
    def _ends(self):
        """(control, symbol) -> the end controls of its triples."""
        ends = {}
        for (p, symbol, q) in self.triples:
            ends.setdefault((p, symbol), set()).add(q)
        return {key: frozenset(qs) for (key, qs) in ends.items()}

    @functools.cached_property
    def _images(self):
        return {}

    def image(self, controls, symbol):
        """The end controls of emptying ``symbol`` from some member of ``controls``.

        Read off the per-(control, symbol) end sets and memoized per
        (control set, symbol) on the table.
        """
        key = (controls, symbol)
        got = self._images.get(key)
        if got is None:
            ends = self._ends
            got = frozenset().union(*(ends.get((p, symbol), ()) for p in controls))
            self._images[key] = got
        return got


def compute_transformers(pda):
    """The emptying relation of a pda, with exact shortest-derivation lengths.

    The least fixpoint over the rules: a rule p X -a-> q alpha contributes
    (p, X, r) whenever alpha can be emptied from q ending in r, at cost one
    plus the cost of emptying alpha.  It is computed by Knuth's
    generalisation of Dijkstra's algorithm to grammar derivations (IPL
    1977).  A heap holds triples (p, X, q) and partial chains (rule, i, c):
    the first i pushed symbols of the rule emptied from its target, ending
    in control c.  A popped triple extends the chains waiting on (p, X); a
    popped chain joins the popped triples of its next symbol, and a complete
    one yields its triple at one more step.  Every cost is one plus a sum of
    non-negative terms, so the first pop of a triple carries its least
    cost, and ``shortest`` and ``bound`` are exact.
    """
    rules = pda.rules
    heap = []
    dist = {}               # (p, X, q) -> fewest steps
    ends = {}               # (p, X) -> [(q, steps), ...] popped so far
    waiting = {}            # (p, X) -> [(rule index, position, cost), ...]
    chains = set()          # (rule index, position, control) popped so far

    def settle(i, at, c, cost):
        rule = rules[i]
        if at == len(rule.push):
            heapq.heappush(heap, (cost + 1, 0, rule.control, rule.symbol, c))
            return
        need = (c, rule.push[at])
        waiting.setdefault(need, []).append((i, at, cost))
        for (q, steps) in ends.get(need, ()):
            heapq.heappush(heap, (cost + steps, 1, i, at + 1, q))

    # the empty chains cost nothing, so they settle before any pop
    for (i, rule) in enumerate(rules):
        settle(i, 0, rule.target, 0)
    while heap:
        item = heapq.heappop(heap)
        if item[1] == 1:
            (cost, _, i, at, c) = item
            if (i, at, c) not in chains:
                chains.add((i, at, c))
                settle(i, at, c, cost)
            continue
        (cost, _, p, x, q) = item
        if (p, x, q) in dist:
            continue
        dist[(p, x, q)] = cost
        ends.setdefault((p, x), []).append((q, cost))
        for (i, at, base) in waiting.get((p, x), ()):
            heapq.heappush(heap, (base + cost, 1, i, at + 1, q))
    bound = max(dist.values(), default=0)
    return TransformerTable(
        controls=pda.controls,
        alphabet=pda.stack_alphabet,
        triples=frozenset(dist),
        shortest=tuple(sorted(dist.items())),
        bound=bound,
    )


def apply_set_transformer(table, controls, word):
    """The image of a control-state set under a stack segment.

    Folds the single-symbol relation over the word: the result is every
    control reachable by emptying the whole segment from some member.
    Monotone in ``controls``.  Each step is one ``TransformerTable.image``
    lookup, so no step scans the triples.
    """
    current = frozenset(controls)
    for c in current:
        if c not in table.controls:
            raise InputError("undeclared control state %r" % (c,))
    for sym in word:
        if sym not in table.alphabet:
            raise InputError("undeclared stack symbol %r" % (sym,))
        current = table.image(current, sym)
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
