"""Deciding whether a pushdown configuration behaves like a finite system.

A fully normed process, one where every (control, symbol) pair can pop its
symbol, is decided by its norm alone.  From a finite stack its dead
configurations are exactly those with an empty stack, and each
configuration's norm (its distance to a dead one) is finite and at least
its stack length.  Bisimilar configurations have equal norms, so a
stack-growing loop reaches configurations of unboundedly many norms, which
no finite system can match.  The first loop candidate settles such a
process, with no game and no cutoff.

Every other process goes to two semidecision procedures run against each
other:

* the negative side walks rule paths looking for stack-growing loops, turns
  each loop into a pumping witness with a computed separation bound, and
  checks the witness by replaying it; a verified witness proves that no
  finite system is equivalent;
* the positive side partitions reachable game keys by bounded games at
  increasing depths, and whenever two consecutive depths agree it proposes
  the induced finite system, whose correctness is then decided exactly.

The driver interleaves the two deterministically, one positive level and
then a batch of loop candidates per round, and reports whichever side wins,
with the evidence needed to re-check the verdict offline.  The pump games
of the negative side read eq-levels only: no attacker strategy is built for
a level that no document keeps.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import AnalysisConfig
from .errors import BudgetError, InputError
from .lts import FiniteLts, GameContext, bounded_bisim
from .pda import Config, PdaOracle, StackWord, canonicalize, validate_config
from .reachability import reach_automaton, reachable_key_cuts
from .equivalence import (
    _compare_with_finite,
    _eqlevel_ladder,
    limit_level_bound,
)
from .transformers import apply_set_transformer


@dataclass(frozen=True)
class LoopCandidate:
    """A stack-growing loop found on some rule path.

    Replaying ``w_rules`` from the start reaches (control, symbol tail);
    replaying ``v_rules`` from there adds one copy of ``period`` under the
    top symbol without ever reading below it.  Pumping the loop yields the
    family (control, symbol period^m tail) of reachable configurations whose
    limit is (control, symbol period^w).  ``stamped`` marks candidates whose
    loop preserves the emptying image of the whole stack, the kind the
    pigeonhole argument guarantees to exist on ever-growing paths.
    """

    control: str
    symbol: str
    period: tuple
    tail: StackWord
    v_rules: tuple
    w_rules: tuple
    stamped: bool

    def sort_key(self):
        return (
            0 if self.stamped else 1,
            len(self.v_rules) + len(self.w_rules),
            self.control,
            self.symbol,
            self.period,
            self.tail.prefix,
            self.tail.period,
        )


class _Entry:
    """One stair entry: a never-undercut snapshot on the current path.

    ``tail_matrix`` is the emptying transformer of the stack below the top
    symbol; ``image`` is the emptying image of the whole stack from the
    entry's own control, the quantity whose repetition the pigeonhole
    argument guarantees.
    """

    __slots__ = (
        "height", "control", "symbol", "config", "node", "tail_matrix",
        "image", "below", "count",
    )

    def __init__(self, height, control, symbol, config, node, tail_matrix, below):
        self.height = height
        self.control = control
        self.symbol = symbol
        self.config = config
        self.node = node
        self.tail_matrix = tail_matrix
        self.below = below
        self.count = 1 if below is None else below.count + 1
        self.image = None


class _Node:
    """One path node of the search tree (not deduplicated across paths)."""

    __slots__ = ("config", "parent", "rule", "entries", "height")

    def __init__(self, config, parent, rule, entries, height):
        self.config = config
        self.parent = parent
        self.rule = rule
        self.entries = entries
        self.height = height


def _stack_matrix(table, stack):
    """The emptying transformer of a whole stack word, per start control.

    An infinite stack can never be fully emptied, so its image is empty for
    every control.
    """
    out = {}
    for p in sorted(table.controls):
        if stack.period:
            out[p] = frozenset()
        else:
            out[p] = apply_set_transformer(table, frozenset([p]), stack.prefix)
    return out


def _compose_matrix(table, segment, below):
    out = {}
    for p in sorted(table.controls):
        through = apply_set_transformer(table, frozenset([p]), segment)
        image = frozenset()
        for q in through:
            image |= below[q]
        out[p] = image
    return out


class StairSearch:
    """Breadth-first enumeration of loop candidates over rule paths.

    Paths carry their stair entries (strictly increasing never-undercut
    heights); every new entry is compared against the older ones with the
    same control and top symbol, which is exactly the situation that pumps.
    Candidates come out batch-per-level, stamped ones first, shorter ones
    next, so the most promising witnesses are tried early.  The search stops
    either because every path ended (``exhausted``: the stack height is
    bounded, a strong regularity signal) or because ``oracle.config.path_budget``
    nodes were expanded (``budget_hit``).  The stamps read ``oracle.table``.
    """

    def __init__(self, oracle, start):
        pda = oracle.pda
        validate_config(pda, start)
        self.pda = pda
        self.start = start
        self.path_budget = oracle.config.path_budget
        self.table = oracle.table
        self.nodes = 0
        self.exhausted = False
        self.budget_hit = False
        self.candidates = 0
        bound = len(pda.controls) * len(pda.stack_alphabet) * (2 ** len(pda.controls))
        self._entry_bound = bound
        self._seen_keys = set()
        self._dedup = set()

    def _seal(self, entry):
        through = apply_set_transformer(
            self.table, frozenset([entry.control]), (entry.symbol,)
        )
        image = frozenset()
        for q in through:
            image |= entry.tail_matrix[q]
        entry.image = image
        return entry

    def _root(self):
        config = self.start
        entries = None
        if config.stack.head() is not None:
            entries = self._seal(
                _Entry(
                    0,
                    config.control,
                    config.stack.head(),
                    config,
                    None,
                    _stack_matrix(self.table, config.stack.tail()),
                    None,
                )
            )
        node = _Node(config, None, None, entries, 0)
        if entries is not None:
            entries.node = node
        return node

    def _extend(self, node, rule, child_config):
        height = node.height - 1 + len(rule.push)
        entries = node.entries
        while entries is not None and entries.height >= height:
            entries = entries.below
        child = _Node(child_config, node, rule, entries, height)
        head = child_config.stack.head()
        if head is None:
            return child, ()
        if entries is None:
            tail_matrix = _stack_matrix(self.table, child_config.stack.tail())
        else:
            segment = child_config.stack.expand(height - entries.height + 1)
            tail_matrix = _compose_matrix(self.table, segment[1:], entries.tail_matrix)
        entry = self._seal(
            _Entry(
                height, child_config.control, head, child_config, child,
                tail_matrix, entries,
            )
        )
        child.entries = entry
        if entry.count > self._entry_bound:
            stamps = set()
            repeated = False
            walk = entry
            while walk is not None:
                stamp = (walk.control, walk.symbol, walk.image)
                if stamp in stamps:
                    repeated = True
                    break
                stamps.add(stamp)
                walk = walk.below
            assert repeated, "stair stamps failed to repeat within the pigeonhole bound"
        return child, self._candidates_at(entry)

    def _candidates_at(self, entry):
        found = []
        older = entry.below
        while older is not None:
            if older.control == entry.control and older.symbol == entry.symbol:
                delta = entry.height - older.height
                segment = entry.config.stack.expand(delta + 1)
                period = segment[1:]
                tail = older.config.stack.tail()
                key = (entry.control, entry.symbol, period, tail.expand(4))
                if key not in self._dedup:
                    self._dedup.add(key)
                    found.append(
                        LoopCandidate(
                            control=entry.control,
                            symbol=entry.symbol,
                            period=period,
                            tail=tail,
                            v_rules=self._rules_between(older.node, entry.node),
                            w_rules=self._rules_between(None, older.node),
                            stamped=older.image == entry.image,
                        )
                    )
            older = older.below
        return found

    def _rules_between(self, ancestor, node):
        rules = []
        walk = node
        while walk is not ancestor and walk is not None and walk.rule is not None:
            rules.append(walk.rule)
            walk = walk.parent
            if walk is ancestor:
                break
        rules.reverse()
        return tuple(rules)

    def __iter__(self):
        frontier = [self._root()]
        self.nodes = 1
        while frontier:
            batch = []
            children = []
            for node in frontier:
                key = (node.config, self._entry_signature(node.entries))
                if key in self._seen_keys:
                    continue
                self._seen_keys.add(key)
                head = node.config.stack.head()
                if head is None:
                    continue
                tail = node.config.stack.tail()
                for rule in self.pda.rules:
                    if rule.control != node.config.control or rule.symbol != head:
                        continue
                    if self.nodes >= self.path_budget:
                        self.budget_hit = True
                        for cand in sorted(batch, key=LoopCandidate.sort_key):
                            self.candidates += 1
                            yield cand
                        return
                    self.nodes += 1
                    succ = Config(rule.target, tail.push(rule.push))
                    (child, found) = self._extend(node, rule, succ)
                    batch.extend(found)
                    children.append(child)
            for cand in sorted(batch, key=LoopCandidate.sort_key):
                self.candidates += 1
                yield cand
            frontier = children
        self.exhausted = True

    def _entry_signature(self, entries):
        sig = []
        walk = entries
        while walk is not None:
            sig.append((walk.height, walk.config))
            walk = walk.below
        return tuple(sig)


@dataclass(frozen=True)
class PumpBound:
    """The separation bound attached to a loop candidate.

    ``preperiod`` and ``cycle_length`` describe how the control-set image of
    the repeated period stabilizes, ``limit_controls`` is the stable image,
    and ``levels`` bounds the finite equivalence levels between the limit
    region and the limit controls.  ``bound`` combines them: once the pumped
    configuration and the limit agree beyond it, they agree in a way no
    finite system can sustain.  ``config`` holds the budgets the bound was
    computed under, the only ones a witness with it is verified under.
    """

    preperiod: int
    cycle_length: int
    limit_controls: tuple
    levels: object          # LevelBound
    bound: int
    config: AnalysisConfig


def pump_bound(oracle, candidate):
    """The separation bound of a loop candidate, under the budgets of ``oracle.config``."""
    (levels, iteration) = limit_level_bound(
        oracle, candidate.control, candidate.symbol, candidate.period
    )
    reach = iteration.preperiod + iteration.cycle_length
    return PumpBound(
        preperiod=iteration.preperiod,
        cycle_length=iteration.cycle_length,
        limit_controls=tuple(sorted(iteration.cycle_set)),
        levels=levels,
        bound=1 + levels.value + reach,
        config=oracle.config,
    )


def pumped_config(loop, copies):
    """The configuration (control, symbol period^copies tail) of a loop."""
    word = StackWord(
        (loop.symbol,) + tuple(loop.period) * copies + loop.tail.prefix,
        loop.tail.period,
    )
    return Config(loop.control, canonicalize(word))


@dataclass(frozen=True)
class Witness:
    """A self-contained non-regularity witness.

    ``c_fin`` is the loop pumped ``pump.bound`` times, ``c_inf`` its limit.
    Replaying the loop (``replay_loop``) proves every pumped configuration
    reachable from ``start``; the equivalence level between ``c_fin`` and
    ``c_inf`` then decides the witness.
    """

    start: Config
    loop: LoopCandidate
    pump: PumpBound

    @property
    def c_fin(self):
        return pumped_config(self.loop, self.pump.bound)

    @property
    def c_inf(self):
        return Config(
            self.loop.control, StackWord.repeating((self.loop.symbol,), self.loop.period)
        )


@dataclass(frozen=True)
class WitnessCheck:
    """Outcome of verifying a witness.

    ``verified`` means the pumped configuration separates from its limit at
    or beyond the bound, which no finite system allows; ``refuted`` means
    this particular witness proves nothing (the separation happens too early
    or not at all); ``exhausted`` means the cutoff ran out first.

    ``corroboration`` holds the equivalence levels at bound, bound+cycle and
    bound+2*cycle pumpings.  Its results and ``base`` come from a level-only
    climb, so a finite one carries no strategy (the witness document stores
    only the base level).  ``corroborated`` is True when they are finite
    and strictly increasing, the signature of a genuinely infinite family.
    ``certified`` additionally requires the underlying level bound to be
    exact, making the verdict independent of every cutoff.
    """

    verdict: str
    bound: int
    base: object          # EqLevelResult for the pumped/limit pair
    corroboration: tuple  # ((copies, EqLevelResult), ...)
    corroborated: object  # True, False or None
    certified: bool
    reason: str


def _replay(pda, config, rules, what):
    for rule in rules:
        if rule not in pda.rules:
            raise InputError("%s uses a rule the process does not have: %s" % (what, rule.format()))
        if config.control != rule.control or config.stack.head() != rule.symbol:
            raise InputError(
                "%s does not replay: %s is not applicable at %s"
                % (what, rule.format(), config.format())
            )
        config = Config(rule.target, config.stack.tail().push(rule.push))
    return config


def _replay_to(pda, config, rules, what, expected):
    reached = _replay(pda, config, rules, what)
    if reached != expected:
        raise InputError(
            "%s ends at %s, expected %s" % (what, reached.format(), expected.format())
        )


def replay_loop(pda, start, loop):
    """Check by rule replay that ``loop`` grows the stack from ``start``.

    The period must be non-empty, the access rules must take ``start`` to
    (control, symbol tail), and the loop rules must turn (control, [symbol])
    into (control, [symbol] period); replaying them on the bare top symbol
    proves they never read below it.  So (control, symbol period^m tail) is
    reachable for every m.  A failing part raises InputError naming it.
    """
    if not loop.period:
        raise InputError("the loop period is empty, so the loop does not grow the stack")
    top = (loop.symbol,)
    _replay_to(
        pda, start, loop.w_rules, "the access path", Config(loop.control, loop.tail.push(top))
    )
    _replay_to(
        pda,
        Config(loop.control, StackWord.finite(top)),
        loop.v_rules,
        "the loop body",
        Config(loop.control, StackWord.finite(top + loop.period)),
    )


def verify_witness(oracle, witness):
    """Re-check a witness from scratch.

    The loop is replayed first (``replay_loop``); then the equivalence
    levels decide the verdict.  They run the ladder of ``eqlevel_configs``
    with a level-only climb, so no attacker strategy is built, and in its
    cheapest-first order: round one, equality after absorption, the climb
    to the probe depth, the finite-graph route capped by the states that
    call newly stepped on ``oracle``, whose successor memo serves the whole
    analysis, then the climb to the cutoff.  The order only moves evidence
    earlier, so the levels are those of climbing to the cutoff first.  The
    games run on ``oracle`` in a context of their own, under
    ``oracle.config``, which must be the config of the pump bound.
    Malformed witnesses, and an oracle of other budgets, raise InputError;
    well-formed ones get a verdict.
    """
    if oracle.config != witness.pump.config:
        raise InputError(
            "the witness's pump bound was computed under %r, not the oracle's %r"
            % (witness.pump.config, oracle.config)
        )
    validate_config(oracle.pda, witness.start)
    replay_loop(oracle.pda, witness.start, witness.loop)

    bound = witness.pump.bound
    cycle = max(1, witness.pump.cycle_length)
    ctx = GameContext(oracle, oracle)
    checks = []
    limit = witness.c_inf
    for copies in (bound, bound + cycle, bound + 2 * cycle):
        pumped = pumped_config(witness.loop, copies)
        result = _eqlevel_ladder(
            ctx, pumped, limit, oracle.config.cutoff, oracle.config.omega_budget, GameContext.level
        )
        checks.append((copies, result))
    (_, base) = checks[0]

    corroborated = None
    levels = [r for (_, r) in checks]
    if all(r.is_finite for r in levels):
        corroborated = levels[0].value < levels[1].value < levels[2].value
    elif any(r.is_omega for r in levels):
        corroborated = False

    if base.is_omega:
        verdict = "refuted"
        reason = "the pumped configuration is bisimilar to its limit"
    elif base.is_finite and base.value < bound:
        verdict = "refuted"
        reason = "separation at level %d is below the bound %d" % (base.value, bound)
    elif base.is_finite:
        verdict = "verified"
        reason = (
            "pumped and limit configurations separate at level %d, at or beyond the bound %d"
            % (base.value, bound)
        )
    else:
        verdict = "exhausted"
        reason = "no separation up to the cutoff %d" % (oracle.config.cutoff,)

    certified = (
        verdict == "verified" and witness.pump.levels.exact and corroborated is True
    )
    return WitnessCheck(
        verdict=verdict,
        bound=bound,
        base=base,
        corroboration=tuple(checks),
        corroborated=corroborated,
        certified=certified,
        reason=reason,
    )


class PositiveSearch:
    """Level-by-level attempts to exhibit an equivalent finite system.

    At depth n the reachable game keys are partitioned by n-round games, at
    depth n+1 by (n+1)-round games.  Each key is played by its probe, the
    configuration holding just the key's kept symbols; configurations with
    one key are bisimilar to the key's depth, so a probe stands for every
    reachable truncation with its key.  When the two partitions agree (same
    count, key-consistent blocks), the quotient induces a finite system
    candidate, and the candidate is handed to the exact decision procedure.
    Only that final gate establishes anything; the stabilization heuristic
    merely proposes.

    The search builds its reachability automaton on the first attempt and
    keeps it.  Each attempt's depth-(n+1) keys are the next attempt's
    depth-n ones, so every depth is enumerated once, up to ``truncation_max``.
    """

    def __init__(self, oracle, start):
        validate_config(oracle.pda, start)
        self.pda = oracle.pda
        self.start = start
        self.max_level = oracle.config.truncation_max
        self.level = 0
        self.oracle = oracle
        self.ctx = GameContext(self.oracle, self.oracle)
        self._aut = None
        self._upper = None      # the last attempt's depth-(n+1) keys

    @property
    def exhausted(self):
        return self.level >= self.max_level

    def _partition(self, cuts, depth):
        """Probe classes of the keys ``cuts`` under ``depth``-round games.

        Keys are taken in sorted order; each probe joins the class of the
        first representative it agrees with, or starts a new class.  A key
        is a prefix of every truncation with that key, so sorted keys come
        in the order their first truncations do, and the classes and their
        order are those of the sorted truncations.
        """
        classes = []
        reps = []
        for (control, kept) in sorted(cuts):
            probe = Config(control, StackWord.finite(kept))
            i = self._classify(probe, reps, depth)
            if i is None:
                reps.append(probe)
                classes.append([probe])
            else:
                classes[i].append(probe)
        return classes

    def _classify(self, config, reps, depth):
        for (i, rep) in enumerate(reps):
            if bounded_bisim(self.oracle, config, self.oracle, rep, depth, ctx=self.ctx):
                return i
        return None

    def attempt(self):
        """Try the next truncation depth; FiniteComparison or None.

        None means this depth did not stabilize (or its candidate was not
        equivalent); the caller decides whether to keep going.
        """
        if self.exhausted:
            return None
        self.level += 1
        n = self.level
        if self._aut is None:
            self._aut = reach_automaton(self.pda, self.start)
        floors = self.oracle.floors
        try:
            lower = self._upper
            if lower is None:
                lower = reachable_key_cuts(self._aut, floors, n)
            upper = reachable_key_cuts(self._aut, floors, n + 1)
        except BudgetError:
            self.level = self.max_level
            return None
        self._upper = upper
        low_classes = self._partition(lower, n)
        upp_classes = self._partition(upper, n + 1)
        if len(low_classes) != len(upp_classes):
            return None
        # a probe's depth-n key is its own at depth n, and the depth-n key
        # of everything a depth-(n+1) probe stands for
        low_index = {}
        for (i, members) in enumerate(low_classes):
            for probe in members:
                low_index[self.oracle.game_key(probe, n)] = i
        projection = {}
        for (ui, members) in enumerate(upp_classes):
            images = {low_index[self.oracle.game_key(p, n)] for p in members}
            if len(images) != 1:
                return None
            projection[ui] = images.pop()
        if len(set(projection.values())) != len(upp_classes):
            return None

        names = ["s%d" % i for i in range(len(low_classes))]
        low_reps = [members[0] for members in low_classes]
        transitions = set()
        for (ui, members) in enumerate(upp_classes):
            rep = members[0]
            src = names[projection[ui]]
            for (act, succ) in self.oracle.successors(rep):
                j = self._classify(succ, low_reps, n)
                if j is None:
                    return None
                transitions.add((src, act, names[j]))
        j0 = self._classify(self.start, low_reps, n)
        if j0 is None:
            return None
        candidate = FiniteLts(frozenset(names), self.pda.actions, frozenset(transitions))
        try:
            return _compare_with_finite(
                self.oracle, self.start, candidate, names[j0], self._aut
            )
        except BudgetError:
            return None


@dataclass(frozen=True)
class NonRegularityEvidence:
    """A verified witness and its verification record."""

    witness: Witness
    check: WitnessCheck


@dataclass(frozen=True)
class NormedEvidence:
    """A stack-growing loop of a fully normed process, and the proof of normedness.

    ``loop`` is the loop candidate: its access rules reach (control, symbol
    tail) from a finite start, and its loop rules turn (control, [symbol])
    into (control, [symbol] + period).  ``emptying`` holds one rule sequence
    per (control, symbol) pair, in sorted order, that takes (control,
    [symbol]) to an empty stack.  Together they prove the pumped
    configurations reachable and their norms unbounded.
    """

    loop: LoopCandidate
    emptying: tuple     # (((control, symbol), rules), ...)


def _cheapest_rule(pda, dist, control, symbol, end):
    """(rule, triples) realizing the shortest emptying (control, symbol, end).

    The rule starts the derivation; popping its push word passes through
    the (control, symbol, end) triples, each strictly cheaper.  ``dist``
    is a least fixpoint, so some rule meets the cost exactly.
    """
    cost = dist[(control, symbol, end)]
    for rule in pda.rules:
        if rule.control != control or rule.symbol != symbol:
            continue
        layer = {rule.target: (0, ())}
        for sym in rule.push:
            nxt = {}
            for (p, (spent, path)) in sorted(layer.items()):
                for q in sorted(pda.controls):
                    d = dist.get((p, sym, q))
                    if d is not None and (q not in nxt or spent + d < nxt[q][0]):
                        nxt[q] = (spent + d, path + ((p, sym, q),))
            layer = nxt
        if layer.get(end, (None,))[0] == cost - 1:
            return (rule, layer[end][1])
    raise AssertionError("no rule realizes the emptying cost of %r" % ((control, symbol, end),))


def _emptying_rules(pda, dist, control, symbol, end):
    """A shortest rule sequence from (control, [symbol]) to (end, [])."""
    rules = []
    todo = [(control, symbol, end)]
    while todo:
        (rule, triples) = _cheapest_rule(pda, dist, *todo.pop())
        rules.append(rule)
        todo.extend(reversed(triples))
    return tuple(rules)


def emptying_sequences(oracle):
    """One shortest emptying rule sequence per (control, symbol) pair.

    None when some pair cannot pop its symbol (the process is not fully
    normed) or when the sequences would hold more than the ``path_budget``
    of ``oracle.config`` rules in all.
    """
    (pda, table) = (oracle.pda, oracle.table)
    dist = dict(table.shortest)
    cheapest = {}
    for ((p, x, q), steps) in table.shortest:
        if (p, x) not in cheapest or steps < cheapest[(p, x)][0]:
            cheapest[(p, x)] = (steps, q)
    pairs = [(p, x) for p in sorted(pda.controls) for x in sorted(pda.stack_alphabet)]
    if any(pair not in cheapest for pair in pairs):
        return None
    if sum(cheapest[pair][0] for pair in pairs) > oracle.config.path_budget:
        return None
    return tuple(
        ((p, x), _emptying_rules(pda, dist, p, x, cheapest[(p, x)][1])) for (p, x) in pairs
    )


@dataclass(frozen=True)
class Verdict:
    """The outcome of the regularity analysis.

    kind is "regular", "nonregular" or "unknown".  For "nonregular",
    ``exactness`` qualifies the verdict: "certified" rests on the norm
    argument or on exact bounds and corroborated growth, "modulo-cutoff"
    additionally trusts that the configured cutoffs were large enough.
    ``certificate`` carries a FiniteComparison (regular), or a
    NormedEvidence or NonRegularityEvidence (nonregular).
    """

    kind: str
    exactness: object
    winner: object
    certificate: object
    stats: tuple


def decide_regularity(pda, start, config=AnalysisConfig()):
    """Decide (semidecide, in general) regularity of a configuration.

    A fully normed process with a finite start stack is decided by the
    norm: its first loop candidate, which grows the stack, makes it
    "nonregular"/"certified" with NormedEvidence, and no pump game runs.
    The route is skipped when the emptying sequences of that evidence would
    hold more than ``config.path_budget`` rules.

    Otherwise runs the positive and negative procedures in a deterministic
    round-robin: each round tries one positive level first, then up to 25
    witness candidates, so a process matched by a shallow finite system
    never waits on refuted pump games.  Returns the first verdict either
    side establishes.  When both sides exhaust their budgets (all taken
    from ``config``) the verdict is honestly "unknown" with the search
    statistics attached.  One ``PdaOracle`` carries ``config`` through it.
    """
    validate_config(pda, start)
    oracle = PdaOracle(pda, config)
    if not oracle.successors(start):
        halt = FiniteLts(frozenset(["halt"]), pda.actions, frozenset())
        comparison = _compare_with_finite(oracle, start, halt, "halt", None)
        stats = (
            ("negative-candidates", 0),
            ("path-nodes", 0),
            ("positive-levels", 0),
        )
        return Verdict("regular", "certified", "positive", comparison, stats)

    search = StairSearch(oracle, start)
    positive = PositiveSearch(oracle, start)
    candidates = iter(search)
    negative_done = False
    examined = 0

    def stats():
        return (
            ("negative-budget-hit", search.budget_hit),
            ("negative-candidates", examined),
            ("negative-exhausted", search.exhausted),
            ("path-nodes", search.nodes),
            ("positive-levels", positive.level),
        )

    emptying = None
    if not start.stack.period:
        emptying = emptying_sequences(oracle)
    if emptying is not None:
        # every candidate's loop grows the stack: its period is non-empty
        candidate = next(candidates, None)
        if candidate is not None:
            examined = 1
            evidence = NormedEvidence(candidate, emptying)
            return Verdict("nonregular", "certified", "negative", evidence, stats())
        negative_done = True

    while True:
        if not positive.exhausted:
            comparison = positive.attempt()
            if comparison is not None and comparison.equivalent:
                return Verdict("regular", "certified", "positive", comparison, stats())
        if not negative_done:
            for _ in range(25):
                try:
                    candidate = next(candidates)
                except StopIteration:
                    negative_done = True
                    break
                examined += 1
                witness = Witness(start, candidate, pump_bound(oracle, candidate))
                check = verify_witness(oracle, witness)
                if check.verdict == "verified":
                    exactness = "certified" if check.certified else "modulo-cutoff"
                    return Verdict(
                        "nonregular",
                        exactness,
                        "negative",
                        NonRegularityEvidence(witness, check),
                        stats(),
                    )
                if examined >= config.candidate_budget:
                    negative_done = True
                    break
        if (negative_done or search.exhausted) and positive.exhausted:
            return Verdict("unknown", None, None, None, stats())
