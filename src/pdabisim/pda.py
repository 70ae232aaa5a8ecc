"""Pushdown processes: rules, configurations, stack words, stepping.

A process is a set of rules ``p X --a--> q alpha``: in control state p with X
on top of the stack, emit action a, move to control q and replace X by the
word alpha.  There are no silent rules and the empty stack is a deadlock.

Stack words may be finite or ultimately periodic (a finite prefix followed by
an infinitely repeated period), and are kept in a canonical form so that two
words are structurally equal exactly when they denote the same symbol
sequence.  A ``PdaOracle`` presents one process to an analysis, and its
``AbsorbingOracle`` view the same graph with dead stack tails cut off.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

from .config import AnalysisConfig
from .errors import InputError
from .lts import SuccessorOracle
from .transformers import apply_set_transformer, compute_transformers


class Rule(NamedTuple):
    """A single rewriting rule: (control, symbol) --action--> (target, push).

    A tuple record, hashed, compared and ordered as its five fields in order.
    """

    control: str
    symbol: str
    action: str
    target: str
    push: tuple

    def format(self):
        rhs = " ".join(self.push) if self.push else "."
        return "%s %s %s -> %s %s" % (self.control, self.symbol, self.action, self.target, rhs)


# a NamedTuple may not define ``_make`` in its own body, hence the subclass
class _StackWordFields(NamedTuple):
    prefix: tuple
    period: tuple


class StackWord(_StackWordFields):
    """A finite or ultimately periodic stack word, leftmost symbol on top.

    ``prefix`` holds the finite part; a non-empty ``period`` denotes that
    word repeated forever after the prefix.  Use the factories (or
    ``canonicalize``) to obtain canonical instances: period primitive, prefix
    as short as possible.  Canonical instances compare equal iff they denote
    the same symbol sequence.  A word is a tuple record, hashed, compared
    and ordered as the pair (prefix, period); since a periodic word has no
    length, read its fields rather than iterating or unpacking it.
    Pickling, copying, ``_make`` and ``_replace`` go by the fields too.
    """

    __slots__ = ()

    def __reduce__(self):
        return (StackWord, (self.prefix, self.period))

    @classmethod
    def _make(cls, fields):
        (prefix, period) = fields
        return cls(prefix, period)

    @classmethod
    def finite(cls, symbols=()):
        return cls(tuple(symbols), ())

    @classmethod
    def repeating(cls, prefix, period):
        if not period:
            raise InputError("periodic stack words need a non-empty period")
        return canonicalize(cls(tuple(prefix), tuple(period)))

    @property
    def is_finite(self):
        return not self.period

    def __len__(self):
        if self.period:
            raise InputError("infinite stack word has no length")
        return len(self.prefix)

    def head(self):
        """Top symbol, or None if the stack is empty."""
        if self.prefix:
            return self.prefix[0]
        if self.period:
            return self.period[0]
        return None

    def tail(self):
        """The word below the top symbol.  Pre: non-empty."""
        if self.prefix:
            return canonicalize(StackWord(self.prefix[1:], self.period))
        if self.period:
            return canonicalize(StackWord(self.period[1:], self.period))
        raise InputError("empty stack has no tail")

    def push(self, symbols):
        """The word with ``symbols`` stacked on top (first symbol topmost)."""
        return canonicalize(StackWord(tuple(symbols) + self.prefix, self.period))

    def expand(self, n):
        """The first n symbols (fewer if a finite word runs out)."""
        if n <= len(self.prefix) or not self.period:
            return self.prefix[:n]
        out = list(self.prefix)
        while len(out) < n:
            out.extend(self.period)
        return tuple(out[:n])

    def format(self):
        body = " ".join(self.prefix)
        if self.period:
            return "[%s] (%s)^w" % (body, " ".join(self.period))
        return "[%s]" % body


def _primitive_root(word):
    n = len(word)
    for d in range(1, n + 1):
        if n % d == 0 and word == word[:d] * (n // d):
            return word[:d]
    return word


def canonicalize(word):
    """The canonical representative of a stack word.

    Finite words are already canonical.  For ultimately periodic words the
    period is reduced to its primitive root and the prefix shortened as far
    as possible (absorbing trailing symbols into a rotation of the period),
    which makes the representation unique for each denoted sequence.
    """
    if not word.period:
        return word
    period = _primitive_root(word.period)
    prefix = list(word.prefix)
    while prefix and prefix[-1] == period[-1]:
        prefix.pop()
        period = (period[-1],) + period[:-1]
    return StackWord(tuple(prefix), period)


class Config(NamedTuple):
    """A configuration: control state plus stack word, ordered as (control, prefix, period)."""

    control: str
    stack: StackWord

    def format(self):
        return "%s %s" % (self.control, self.stack.format())


class TruncatedConfig(NamedTuple):
    """A control state with only the top ``k`` stack symbols retained.

    Configurations sharing a depth-k truncation are equivalent at level k
    (popping the visible part takes at least k rounds), so truncations serve
    as level-k representatives of everything underneath them.
    """

    control: str
    prefix: tuple

    def as_config(self):
        return Config(self.control, StackWord.finite(self.prefix))


@dataclass(frozen=True)
class Pda:
    """An immutable pushdown process declaration.

    Rules are stored sorted and deduplicated.  All components of every rule
    must be declared in the respective alphabets; actions label rules only
    (there is no silent action), and no stack symbol is the empty string.
    """

    controls: frozenset
    stack_alphabet: frozenset
    actions: frozenset
    rules: tuple

    def __post_init__(self):
        normalized = tuple(sorted(set(self.rules)))
        object.__setattr__(self, "rules", normalized)
        if not self.controls:
            raise InputError("a pda needs at least one control state")
        if not self.actions:
            raise InputError("a pda needs at least one action")
        if "" in self.stack_alphabet:
            # the reachability automaton labels its silent edges with ""
            raise InputError("a stack symbol must be a non-empty name")
        for r in normalized:
            if r.control not in self.controls or r.target not in self.controls:
                raise InputError("rule %r uses an undeclared control state" % (r.format(),))
            if r.symbol not in self.stack_alphabet:
                raise InputError("rule %r pops an undeclared stack symbol" % (r.format(),))
            if r.action not in self.actions:
                raise InputError("rule %r uses an undeclared action" % (r.format(),))
            for sym in r.push:
                if sym not in self.stack_alphabet:
                    raise InputError("rule %r pushes an undeclared stack symbol" % (r.format(),))
        for name in ("controls", "stack_alphabet", "actions"):
            object.__setattr__(self, name, frozenset(getattr(self, name)))
        # hashed once, since ``_rule_index`` looks the pda up on every ``step``
        fields = (self.controls, self.stack_alphabet, self.actions, normalized)
        object.__setattr__(self, "_hash", hash(fields))

    def __hash__(self):
        return self._hash

    def max_push(self):
        return max((len(r.push) for r in self.rules), default=0)


@functools.lru_cache(maxsize=None)
def _rule_index(pda):
    """(control, symbol) -> the (action, target, push) of its rules, as ``step`` reads them."""
    index = {}
    for r in pda.rules:
        index.setdefault((r.control, r.symbol), []).append((r.action, r.target, r.push))
    return {k: tuple(v) for k, v in index.items()}


def validate_config(pda, config):
    """Check that a configuration only mentions declared names and its stack is canonical."""
    if config.control not in pda.controls:
        raise InputError("undeclared control state %r" % (config.control,))
    (prefix, period) = (config.stack.prefix, config.stack.period)
    alphabet = pda.stack_alphabet
    if not (alphabet.issuperset(prefix) and alphabet.issuperset(period)):
        sym = next(s for s in prefix + period if s not in alphabet)
        raise InputError("undeclared stack symbol %r" % (sym,))
    # canonical: a primitive period, and no prefix symbol it could absorb
    if period and ((prefix and prefix[-1] == period[-1]) or _primitive_root(period) != period):
        raise InputError(
            "stack word %s is not canonical; write it as %s"
            % (config.stack.format(), canonicalize(config.stack).format())
        )
    return config


def step(pda, config):
    """The ordered list of (action, successor) pairs of a configuration.

    An empty stack has no successors.  Output is deduplicated and sorted by
    (action, successor), so exploration order is reproducible.  The stack
    must be canonical, as the factories and ``canonicalize`` make it; then
    so are the successors' stacks.  The tail below the top symbol is
    canonical as it stands, and a push keeps it so unless it lands directly
    on a period: only there may pushed symbols be absorbed into the period,
    and two rules reach the same word.
    """
    control = config.control
    if control not in pda.controls:
        raise InputError("undeclared control state %r" % (control,))
    (prefix, period) = (config.stack.prefix, config.stack.period)
    if prefix:
        (head, below) = (prefix[0], prefix[1:])
    elif period:
        (head, below) = (period[0], ())
        period = period[1:] + period[:1]
    else:
        return []
    if head not in pda.stack_alphabet:
        raise InputError("undeclared stack symbol %r" % (head,))
    moves = _rule_index(pda).get((control, head), ())
    if below or not period:
        out = [(a, Config(q, StackWord(push + below, period))) for (a, q, push) in moves]
    else:
        out = list({(a, Config(q, canonicalize(StackWord(push, period)))) for (a, q, push) in moves})
    out.sort()
    return out


class PdaOracle(SuccessorOracle):
    """Successor oracle presenting a pda's configuration graph as an LTS.

    The game key at depth k is the control plus the stack's top symbols, up
    to a horizon that k rounds cannot see past.  Popping a symbol X takes at
    least floor(X) moves, the fewest steps of any emptying triple (p, X, q);
    a symbol without triples is never popped.  The key walks the stack from
    the top (prefix, then period repeated) and stops once the floors of the
    symbols taken add up to k, or just after a symbol that is never popped.
    Exposing the symbol below the kept ones therefore takes at least k
    moves, so configurations with one key have isomorphic k-round
    unfoldings and may share game results.  Every floor is at least 1, so
    the key never keeps more than the top k symbols, and at depth 0 or 1 it
    keeps exactly the top k without reading a floor.  ``eqlevel_configs``
    plays round one first for that reason: a pair it separates is answered
    before any transformer table is built, and since the key is the one the
    floor walk gives, so is the answer.

    One oracle serves one analysis, carries its budgets (``config``) and
    owns what it derives from the pda: its successor lists, memoized per
    configuration (``expanded`` counts the configurations stepped), the
    transformer table, built on first use, the floors read off it, and its
    one ``absorbing`` view.  It holds no game context, so an analysis'
    oracle is freed by reference counting alone.
    """

    def __init__(self, pda, config=AnalysisConfig()):
        self.pda = pda
        self.config = config
        self.absorbed = {}
        self.expanded = 0
        self._succ = {}
        self._absorbing = None

    def successors(self, config):
        got = self._succ.get(config)
        if got is None:
            got = self._succ[config] = self._step(config)
            self.expanded += 1
        return got

    def _step(self, config):
        """The successors of a configuration not yet memoized; a view overrides it."""
        return tuple(step(self.pda, config))

    @property
    def absorbing(self):
        """The analysis' one ``AbsorbingOracle`` view, built on first use."""
        if self._absorbing is None:
            self._absorbing = AbsorbingOracle(self)
        return self._absorbing

    @functools.cached_property
    def table(self):
        return compute_transformers(self.pda)

    @functools.cached_property
    def floors(self):
        """symbol -> fewest moves that pop it; symbols never popped are absent."""
        floors = {}
        for ((_, symbol, _), steps) in self.table.shortest:
            floors[symbol] = min(steps, floors.get(symbol, steps))
        return floors

    def game_key(self, config, depth):
        if depth <= 1:
            return (id(self.pda), config.control, config.stack.expand(depth))
        floors = self.floors
        (prefix, period) = (config.stack.prefix, config.stack.period)
        cost = 0
        i = 0
        while cost < depth:
            if i < len(prefix):
                sym = prefix[i]
            elif period:
                sym = period[(i - len(prefix)) % len(period)]
            else:
                break
            i += 1
            floor = floors.get(sym)
            if floor is None:
                break
            cost += floor
        kept = prefix[:i] if i <= len(prefix) else config.stack.expand(i)
        return (id(self.pda), config.control, kept)


def absorb_dead_tail(table, config):
    """Cut the stack at the first position that can never become the top.

    Walking the stack from the top while pushing the control set through the
    emptying relation, the set may become empty; from that point on no symbol
    is ever exposed, so the configuration behaves exactly like the one cut
    there.  The result is therefore interchangeable with the input in any
    behavioural question, and a finite stack often replaces an infinite one.
    ``table`` is the process's transformer table (``PdaOracle.table``).
    """
    prefix = config.stack.prefix
    period = config.stack.period
    controls = frozenset([config.control])
    for (i, _) in enumerate(prefix):
        if not controls:
            return Config(config.control, StackWord.finite(prefix[:i]))
        controls = apply_set_transformer(table, controls, (prefix[i],))
    if not period:
        return config
    unrolled = list(prefix)
    seen = set()
    pos = 0
    while True:
        if not controls:
            return Config(config.control, StackWord.finite(unrolled))
        if (pos, controls) in seen:
            return config
        seen.add((pos, controls))
        unrolled.append(period[pos])
        controls = apply_set_transformer(table, controls, (period[pos],))
        pos = (pos + 1) % len(period)


class AbsorbingOracle(PdaOracle):
    """Successor oracle that absorbs dead tails after every step.

    The absorbed graph is pointwise bisimilar to the raw one but often
    finite where the raw graph is not (stacks that only ever grow dead
    material collapse), which is what makes exhaustive region exploration
    feasible.  Being bisimilar, both graphs share the pop-horizon game key
    of ``PdaOracle``, so absorbed and raw configurations share game results.
    It is the ``absorbing`` view of an analysis' ``PdaOracle``: it takes
    that oracle's config, table and floors and shares its absorptions, but
    holds no reference to the oracle itself.  Its successor lists are
    memoized like the oracle's, so every query of the analysis steps each
    absorbed state once.
    """

    def __init__(self, raw):
        super().__init__(raw.pda, raw.config)
        (self.table, self.floors, self.absorbed) = (raw.table, raw.floors, raw.absorbed)

    def absorb(self, config):
        got = self.absorbed.get(config)
        if got is None:
            got = absorb_dead_tail(self.table, config)
            self.absorbed[config] = got
        return got

    def _step(self, config):
        return tuple((a, self.absorb(c)) for (a, c) in step(self.pda, config))


def _fresh_symbol(base, taken):
    name = base
    while name in taken:
        name = name + "'"
    return name


@dataclass(frozen=True)
class NormalizationMap:
    """Relates the symbols of a normalized pda back to the original one.

    ``expansions`` maps every composite symbol to the original word it
    stands for; original symbols are kept as themselves and are absent from
    the map.
    """

    expansions: tuple  # sorted ((symbol, original word), ...)


def normalize_rules(pda):
    """Rewrite a pda so that every rule pushes at most two symbols.

    Long right-hand sides are chunked into composite symbols, each standing
    for a pair of current symbols; composite symbols get rules simulating
    their first component with the second appended.  The construction is
    iterated until all right-hand sides fit.  Configurations over the old
    alphabet are valid unchanged in the new pda and behave identically; the
    returned NormalizationMap records the original word of every composite
    symbol.
    """

    alphabet = set(pda.stack_alphabet)
    rules = list(pda.rules)
    flat = {}  # composite symbol -> original word

    def flatten(sym):
        return flat.get(sym, (sym,))

    while max((len(r.push) for r in rules), default=0) > 2:
        pair_names = {}
        pending = []

        def pack(word):
            # chunk into pairs from the top; a trailing odd symbol stays bare
            out = []
            i = 0
            while i < len(word):
                if i + 1 < len(word):
                    key = (word[i], word[i + 1])
                    name = pair_names.get(key)
                    if name is None:
                        name = _fresh_symbol("<%s+%s>" % key, alphabet)
                        alphabet.add(name)
                        pair_names[key] = name
                        flat[name] = flatten(key[0]) + flatten(key[1])
                        pending.append(key)
                    out.append(name)
                    i += 2
                else:
                    out.append(word[i])
                    i += 1
            return tuple(out)

        by_symbol = {}
        for r in rules:
            by_symbol.setdefault(r.symbol, []).append(r)

        new_rules = [
            Rule(r.control, r.symbol, r.action, r.target, pack(r.push)) for r in rules
        ]
        while pending:
            (first, second) = pending.pop(0)
            name = pair_names[(first, second)]
            # the pair behaves like its first component with the second kept below
            for r in by_symbol.get(first, ()):
                new_rules.append(
                    Rule(r.control, name, r.action, r.target, pack(r.push + (second,)))
                )
        rules = new_rules

    normalized = Pda(pda.controls, frozenset(alphabet), pda.actions, tuple(rules))
    mapping = NormalizationMap(tuple(sorted(flat.items())))
    return normalized, mapping
