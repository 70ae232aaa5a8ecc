"""The reachable configurations of a pda, represented as a finite automaton.

Rule application only ever rewrites the top of the stack, so the set of
configurations reachable from a fixed start is a regular stack language per
control state.  We build a finite automaton for it by saturation: starting
from an automaton accepting exactly the initial configuration, every rule
adds edges describing how it transforms accepted stacks, until nothing new
appears.  Queries then run against the automaton instead of the (generally
infinite) configuration graph.

``poststar`` saturates in one worklist pass in the style of Esparza,
Hansel, Rossmanith and Schwoon (CAV 2000), run on sets of states: the
edges out of a state with one label are one bitmask of destinations, and a
popped worklist key fires a whole batch of new destinations at once.  The
automaton keeps its edges in that grouped form: one (source, label,
destination set) group per key, where the few distinct destination sets
are shared between the many groups that have them.  The queries here read
the groups; the plain (source, label, destination) triples are derived
only when a reader asks for ``ConfigAutomaton.edges``.
``reachable_key_cuts`` reads the depth-k pop-horizon game keys off the
automaton by suffix: the cuts below each state are enumerated once per
(state, remaining pop cost) and shared by every prefix leading there, so
the games of a comparison are played once per key without listing the
(often far more) truncations.  ``reachable_truncations`` is the same
enumeration with every symbol costing one.
``saturation_edges`` is the naive sweep over every rule; nothing on the fast
path uses it, so a certificate checker can verify closure independently of
how the automaton was produced.

``reach_automaton`` normalizes a pda and then saturates.  Nothing here is
cached: an automaton and the cut sets read off it live exactly as long as
the caller that built them (``PositiveSearch`` builds one per search and
enumerates each key depth once).

Naive truncated-graph exploration is unsound here: popping below a truncation
exposes symbols the truncation never recorded.  The automaton view does not
lose that information.
"""

from __future__ import annotations

import collections
import functools
from dataclasses import dataclass

from .config import TRUNCATION_DEPTH_LIMIT
from .errors import BudgetError, InputError
from .pda import (
    Config,
    StackWord,
    canonicalize,
    normalize_rules,
    validate_config,
)

EPS = ""


@dataclass(frozen=True)
class ConfigAutomaton:
    """Automaton over (possibly composite) stack symbols.

    Reading a stack word from a control's entry state to a final state means
    the corresponding configuration is reachable.  Edges labelled with the
    empty string are silent.  ``expansions`` maps composite symbols back to
    original words so queries may be posed in original symbols.

    The edges are grouped: ``groups`` holds one ``(src, label, dsts)`` per
    (source, label) pair with edges, sorted by (src, label), where ``dsts``
    is a non-empty frozenset and groups with equal destination sets share
    one frozenset.  ``edges`` is the same edge set as a frozenset of
    (src, label, dst) triples, derived on first read, and ``from_edges``
    builds an automaton from triples.
    """

    entries: tuple          # sorted ((control, state), ...)
    finals: frozenset
    groups: tuple           # sorted ((src, label, frozenset of dst), ...), label "" silent
    expansions: tuple       # composite symbol -> original word, sorted
    alphabet: frozenset     # symbols the edges may use
    original_alphabet: frozenset
    live: tuple = ()        # sorted (state, period) pairs for periodic tails

    @classmethod
    def from_edges(cls, edges, **fields):
        """The automaton with the (src, label, dst) triples ``edges`` and the other ``fields``."""
        by_key = {}
        for (src, label, dst) in edges:
            by_key.setdefault((src, label), set()).add(dst)
        shared = {}
        groups = []
        for key in sorted(by_key):
            dsts = frozenset(by_key[key])
            groups.append(key + (shared.setdefault(dsts, dsts),))
        return cls(groups=tuple(groups), **fields)

    # The views below are built once per automaton and shared by every
    # caller, who must not mutate them.  They are not fields, so equality,
    # hashing and the certificate document ignore them.

    @functools.cached_property
    def edges(self):
        """The edges as a frozenset of (src, label, dst) triples."""
        return frozenset(
            (src, label, dst) for (src, label, dsts) in self.groups for dst in dsts
        )

    @functools.cached_property
    def _entry_of(self):
        return dict(self.entries)

    @functools.cached_property
    def _expansion_of(self):
        return dict(self.expansions)

    @functools.cached_property
    def _adjacency(self):
        adj = {}
        for (src, label, dsts) in self.groups:
            adj.setdefault(src, []).extend((label, dst) for dst in sorted(dsts))
        return adj

    def entry(self, control):
        return self._entry_of.get(control)

    def states(self):
        out = {s for (_, s) in self.entries} | set(self.finals)
        out |= {s for (s, _) in self.live}
        out.update(src for (src, _, _) in self.groups)
        out.update(*{dsts for (_, _, dsts) in self.groups})
        return out

    def flatten(self, symbol):
        return self._expansion_of.get(symbol, (symbol,))

    def adjacency(self):
        """Edges out of each state, in sorted edge order."""
        return self._adjacency

    def dump(self):
        """Line-oriented text form (debugging aid, not a stable interface)."""
        lines = ["entry %s %s" % (c, s) for (c, s) in self.entries]
        lines += ["final %s" % s for s in sorted(self.finals)]
        lines += ["live %s (%s)^w" % (s, " ".join(p)) for (s, p) in self.live]
        lines += [
            "%s %s %s" % (src, label if label else ".", dst)
            for (src, label, dsts) in self.groups
            for dst in sorted(dsts)
        ]
        return "\n".join(lines) + "\n"


def _eps_closure(adj, states):
    todo = list(states)
    seen = set(states)
    while todo:
        s = todo.pop()
        for (label, dst) in adj.get(s, ()):
            if label == EPS and dst not in seen:
                seen.add(dst)
                todo.append(dst)
    return seen


def saturation_edges(pda, entries, edges):
    """One saturation sweep: the edges the rules force, given current ones.

    An already saturated automaton gets back an empty set.  This is the
    independent closure check for certificates and tests; ``poststar`` does
    not use it.
    """
    adj = {}
    for (src, label, dst) in edges:
        adj.setdefault(src, []).append((label, dst))
    entry = dict(entries)
    fresh = set()
    for (i, rule) in enumerate(pda.rules):
        starts = _eps_closure(adj, {entry[rule.control]})
        targets = {
            dst
            for s in starts
            for (label, dst) in adj.get(s, ())
            if label == rule.symbol
        }
        for t in sorted(targets):
            if len(rule.push) == 0:
                cand = {(entry[rule.target], EPS, t)}
            elif len(rule.push) == 1:
                cand = {(entry[rule.target], rule.push[0], t)}
            elif len(rule.push) == 2:
                mid = "r%d" % i
                cand = {
                    (entry[rule.target], rule.push[0], mid),
                    (mid, rule.push[1], t),
                }
            else:
                raise InputError(
                    "rule %r pushes %d symbols; saturate normalized pdas only"
                    " (see normalize_rules)" % (rule.format(), len(rule.push))
                )
            fresh |= cand - edges
    return fresh


def initial_skeleton(controls, start):
    """Entry states plus the parts accepting exactly the start configuration.

    Returns (entries, edges, finals, live).  Factored out of poststar so a
    certificate checker can rebuild the pre-saturation skeleton and confirm
    a claimed automaton contains it.
    """
    entries = tuple(sorted((q, "c:%s" % q) for q in controls))
    entry = dict(entries)
    edges = set()
    finals = set()
    live = []
    src = entry[start.control]
    word = start.stack.prefix
    period = start.stack.period
    if period:
        for (i, sym) in enumerate(word):
            dst = "w%d" % (i + 1)
            edges.add((src, sym, dst))
            src = dst
        edges.add((src, EPS, "g0"))
        for (j, sym) in enumerate(period):
            edges.add(("g%d" % j, sym, "g%d" % ((j + 1) % len(period))))
            live.append(("g%d" % j, period[j:] + period[:j]))
    else:
        for (i, sym) in enumerate(word):
            dst = "acc" if i == len(word) - 1 else "w%d" % (i + 1)
            edges.add((src, sym, dst))
            src = dst
        if not word:
            edges.add((src, EPS, "acc"))
        finals.add("acc")
    return (entries, frozenset(edges), frozenset(finals), tuple(sorted(live)))


def _bits(mask):
    """Positions of the set bits of ``mask``, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _saturate(pda, entries, skeleton):
    """The least edge set containing ``skeleton`` and closed under the rules, grouped.

    One worklist pass; the same fixpoint that looping ``saturation_edges``
    reaches, with the same ``r%d`` mid state per rule index.  States are
    numbered once, and the edges out of a state with one label are one
    bitmask of destinations.  The worklist holds (state, label) keys: new
    destinations for a key already queued are OR-ed into its pending mask,
    and the queue is first in, first out, so a key gathers a batch of
    destinations before it is popped and fires them all at once.  The
    result is ``ConfigAutomaton.groups``: each key with its mask as a set of
    state names, where keys with equal masks share one set.

    ``reach[c]`` is the mask of states that control c's entry reaches by
    silent edges, and ``controls[s]`` lists the controls reaching state s.
    A popped symbol key fires the matching rules of every control reaching
    its state; a popped silent key spreads those controls to its
    destinations.  A control newly reaching a state fires the symbol edges
    already popped there and spreads along the silent ones.

    The edges a firing adds depend only on (control, symbol, target), so
    ``fired[(c, X)]`` masks the targets already fired for them and a firing
    handles only the rest.  A rule adds one edge per target: from its target
    control's entry when it pushes at most one symbol, from its mid state
    when it pushes two.  A two-symbol push also needs the entry-to-mid
    edge, which does not depend on the target, so that edge is added once,
    the first time the rule fires.
    """
    entry = dict(entries)
    index = {}
    for (_, s) in entries:
        index[s] = len(index)
    for (src, _, dst) in skeleton:
        index.setdefault(src, len(index))
        index.setdefault(dst, len(index))
    fires = {}              # (control, symbol) -> [[head, label, once], ...]
    for (i, rule) in enumerate(pda.rules):
        (src, push) = (index[entry[rule.target]], rule.push)
        if len(push) < 2:
            action = [src, push[0] if push else EPS, None]
        else:
            mid = index["r%d" % i] = len(index)
            action = [mid, push[1], (src, push[0], 1 << mid)]
        fires.setdefault((rule.control, rule.symbol), []).append(action)
    out = {}                # (state, label) -> destination mask
    pending = {}            # (state, label) -> destinations not yet popped
    queue = collections.deque()

    def add(key, bits):
        have = out.get(key, 0)
        bits &= ~have
        if bits:
            out[key] = have | bits
            if key in pending:
                pending[key] |= bits
            else:
                pending[key] = bits
                queue.append(key)

    for (src, label, dst) in skeleton:
        key = (index[src], label)
        out[key] = out.get(key, 0) | 1 << index[dst]
    pending.update(out)
    queue.extend(out)
    popped = {}             # state -> {label: popped destination mask}
    reach = {q: 1 << index[s] for (q, s) in entries}
    controls = {index[s]: [q] for (q, s) in entries}
    fired = {}              # (control, symbol) -> targets already fired

    def fire(control, symbol, dsts):
        actions = fires.get((control, symbol))
        if actions is None:
            return
        done = fired.get((control, symbol), 0)
        new = dsts & ~done
        if not new:
            return
        fired[(control, symbol)] = done | new
        for action in actions:
            if action[2] is not None:
                (head, label, mid) = action[2]
                add((head, label), mid)
                action[2] = None
            add((action[0], action[1]), new)

    def spread(control, dsts):
        todo = [dsts]
        while todo:
            new = todo.pop() & ~reach[control]
            if not new:
                continue
            reach[control] |= new
            for s in _bits(new):
                controls.setdefault(s, []).append(control)
                for (label, mask) in popped.get(s, {}).items():
                    if label == EPS:
                        todo.append(mask)
                    else:
                        fire(control, label, mask)

    while queue:
        key = queue.popleft()
        bits = pending.pop(key)
        (src, label) = key
        done = popped.setdefault(src, {})
        done[label] = done.get(label, 0) | bits
        if label == EPS:
            for control in controls.get(src, ()):
                spread(control, bits)
        else:
            for control in controls.get(src, ()):
                fire(control, label, bits)
    # few distinct masks recur over many keys: name each mask's states once;
    # a long start makes many one-state masks, which need no bit walk
    names = list(index)
    dsts = {}
    for mask in set(out.values()):
        if mask & (mask - 1):
            dsts[mask] = frozenset([names[b] for b in _bits(mask)])
        else:
            dsts[mask] = frozenset((names[mask.bit_length() - 1],))
    return tuple(sorted((names[src], label, dsts[mask]) for ((src, label), mask) in out.items()))


def poststar(pda, start, expansions=()):
    """Saturated automaton of everything reachable from ``start``.

    The edges come from one worklist pass over destination bitmasks
    (``_saturate``), grouped per (source, label): the least edge set
    containing the start skeleton and closed under the rules, which is what
    looping ``saturation_edges`` to a fixpoint yields too.  Mid states are
    named ``r<i>`` after the index of the rule that pushes two symbols.

    Pre: every rule of ``pda`` pushes at most two symbols (run normalize_rules
    first otherwise).  A periodic start stack is handled by closing the
    initial word chain into a cycle of live states; the resulting automaton
    then has no finals (no finite-stack configuration is reachable) and
    acceptance means running into the live cycle.  ``expansions`` is the
    sorted (composite symbol, original word) tuple that normalize_rules
    returns beside the pda it normalized.
    """
    if pda.max_push() > 2:
        raise InputError("pda is not normalized; run normalize_rules first")
    validate_config(pda, start)

    (entries, skeleton, finals, live) = initial_skeleton(pda.controls, start)
    groups = _saturate(pda, entries, skeleton)

    composite = {sym for (sym, _) in expansions}
    return ConfigAutomaton(
        entries=entries,
        finals=frozenset(finals),
        groups=groups,
        expansions=tuple(expansions),
        alphabet=frozenset(pda.stack_alphabet),
        original_alphabet=frozenset(pda.stack_alphabet - composite),
        live=tuple(sorted(live)),
    )


def reach_automaton(pda, start):
    """Reachability automaton from ``start``, normalizing the pda first.

    ``start`` is given in original symbols and stays valid after
    normalization.  Nothing is cached: a caller that queries one automaton
    repeatedly keeps it.
    """
    (norm, expansions) = normalize_rules(pda)
    return poststar(norm, start, expansions)


def _backward(groups, targets):
    """States from which some state of ``targets`` is reachable along ``groups``.

    One linear backward pass.  A group into a single state is a plain
    reverse edge; a larger destination set is indexed once under its
    members, and the first of them found marks the sources of every group
    into the set.
    """
    rev = {}                # state -> sources of the groups into it alone
    sources = {}            # larger destination set -> its sources
    for (src, _, dsts) in groups:
        if len(dsts) == 1:
            (dst,) = dsts
            rev.setdefault(dst, []).append(src)
        else:
            sources.setdefault(dsts, []).append(src)
    holding = {}            # state -> source lists of the larger sets holding it
    for (dsts, srcs) in sources.items():
        for s in dsts:
            holding.setdefault(s, []).append(srcs)
    seen = set(targets)
    todo = list(seen)
    while todo:
        state = todo.pop()
        for p in rev.get(state, ()):
            if p not in seen:
                seen.add(p)
                todo.append(p)
        for srcs in holding.get(state, ()):
            for p in srcs:
                if p not in seen:
                    seen.add(p)
                    todo.append(p)
            srcs.clear()    # each larger set marks its sources once
    return seen


def _reading_edges(aut, k):
    """(coaccessible states, silent edges, reading edges) for a depth-k enumeration.

    Both maps hold the groups out of coaccessible states, one entry per
    group: ``silent`` maps a state to its silent destination sets, ``reads``
    to its (word, destination set) pairs with the word in original symbols.
    A destination set may hold states that are not coaccessible; the reader
    skips them.  A depth past 12 raises BudgetError.
    """
    if k < 0:
        raise InputError("truncation depth must be >= 0, got %r" % (k,))
    if k > TRUNCATION_DEPTH_LIMIT:
        raise BudgetError(
            "truncation depth %d exceeds the guardrail of %d"
            % (k, TRUNCATION_DEPTH_LIMIT)
        )
    coacc = _backward(aut.groups, aut.finals | {s for (s, _) in aut.live})
    silent = {}
    reads = {}
    for (src, label, dsts) in aut.groups:
        if src not in coacc:
            continue
        word = aut.flatten(label) if label != EPS else ()
        if word:
            reads.setdefault(src, []).append((word, dsts))
        else:
            silent.setdefault(src, []).append(dsts)
    return (coacc, silent, reads)


def reachable_truncations(aut, k):
    """Exactly the depth-k truncations of the reachable configurations.

    That is, the finite configuration (c.control, the top k symbols of c's
    stack) for every reachable c, in original symbols.  At k = 0 it is
    (q, []) for every control q reachable with any stack, the empty one
    included.  A depth past 12 raises BudgetError.

    Configurations sharing a depth-k truncation are equivalent at level k
    (popping the visible part takes at least k rounds), so truncations serve
    as level-k representatives of everything underneath them.  A truncation
    is a pop-horizon key with every floor at 1, so the cuts are
    ``reachable_key_cuts``' with a floor of 1 per original symbol.
    """
    floors = {symbol: 1 for symbol in aut.original_alphabet}
    return {
        Config(control, StackWord.finite(kept))
        for (control, kept) in reachable_key_cuts(aut, floors, k)
    }


def reachable_key_cuts(aut, floors, k):
    """The depth-k pop-horizon keys of the reachable configurations.

    ``floors`` maps each original symbol to the fewest moves that pop it
    (``PdaOracle.floors``).  Returns {(control, kept)}, exactly the
    ``PdaOracle.game_key(c, k)`` of every reachable c without its pda
    part, and therefore of every reachable depth-k truncation.  A depth
    past 12 raises BudgetError.

    The cuts are enumerated by suffix, not by prefix: ``cuts(s, budget)``
    is the set of cuts of the words read from state ``s`` to a coaccessible
    state with ``budget`` pop cost left, memoized per (state, budget), so
    shared suffixes are enumerated once instead of once per prefix reaching
    them.  Reading symbol X spends ``floors[X]``; a cut ends right after the
    symbol that uses the budget up or after a symbol with no floor, and is
    ``()`` at a final state in the silent closure.  Every floor is at least
    1, so the budget falls on every reading edge and the recursion is at
    most k deep.  Many truncations share one key, so there are far fewer
    cuts to enumerate than truncations.
    """
    (coacc, silent, reads) = _reading_edges(aut, k)
    if k == 0:
        return {(control, ()) for (control, start) in aut.entries if start in coacc}
    memo = {}

    def cuts(state, budget):
        got = memo.get((state, budget))
        if got is not None:
            return got
        closure = {state}
        todo = [state]
        while todo:
            for dsts in silent.get(todo.pop(), ()):
                new = dsts - closure
                closure |= new
                todo.extend(new)
        got = set() if aut.finals.isdisjoint(closure) else {()}
        for s in closure:
            for (word, dsts) in reads.get(s, ()):
                rest = budget
                for (i, sym) in enumerate(word):
                    floor = floors.get(sym)
                    if floor is None or floor >= rest:
                        if not coacc.isdisjoint(dsts):
                            got.add(word[: i + 1])
                        break
                    rest -= floor
                else:
                    for dst in dsts:
                        if dst in coacc:
                            got.update([word + t for t in cuts(dst, rest)])
        memo[(state, budget)] = got
        return got

    return {
        (control, kept) for (control, start) in aut.entries for kept in cuts(start, k)
    }


def completion(aut, config, depth=None):
    """Some reachable configuration whose truncation is the finite ``config``.

    ``depth`` is the truncation depth used when the truncation was recorded:
    a stack shorter than it is complete and must be matched exactly, a
    full-length one is matched as a prefix.  Without ``depth`` every match
    is by prefix.  Breadth-first, so the completion is among the shortest.
    Returns None if nothing reachable matches; a periodic ``config`` is no
    truncation and raises InputError.
    """
    if not config.stack.is_finite:
        raise InputError("%s is not a truncation: its stack is periodic" % (config.format(),))
    start = aut.entry(config.control)
    if start is None:
        return None
    adj = aut.adjacency()
    want = config.stack.prefix
    exact = depth is not None and len(want) < depth
    live = dict(aut.live)
    widest = max((len(aut.flatten(sym)) for sym in aut.alphabet), default=1)
    limit = len(want) + (len(aut.states()) + 1) * max(1, widest)
    queue = [(start, ())]
    seen = {(start, ())}
    while queue:
        nxt_queue = []
        for (state, word) in queue:
            if state in aut.finals and word[: len(want)] == want:
                if not exact or word == want:
                    return Config(config.control, StackWord.finite(word))
            if not exact and state in live:
                stack = canonicalize(StackWord(word, live[state]))
                if stack.expand(len(want)) == want:
                    return Config(config.control, stack)
            if len(word) > limit:
                continue
            for (label, dst) in adj.get(state, ()):
                grown = word if label == EPS else word + aut.flatten(label)
                keep = min(len(grown), len(want))
                if grown[:keep] != want[:keep]:
                    continue
                node = (dst, grown)
                if node not in seen:
                    seen.add(node)
                    nxt_queue.append(node)
        queue = nxt_queue
    return None
