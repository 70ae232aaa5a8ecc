"""Labelled transition systems and stratified bisimilarity games.

States are compared through a bounded attacker/defender game: two states are
equivalent at level k when every move of either one can be answered by the
other so that the successors are equivalent at level k-1 (level 0 relates
everything).  The exact level at which two states first disagree is their
eq-level; bisimilar states never disagree.

All comparisons implicitly happen in the disjoint union of the two systems
supplying the states, so the two sides may come from different oracles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import BudgetError, InputError


@dataclass(frozen=True)
class FiniteLts:
    """An explicit finite LTS: named states, action labels, transition triples."""

    states: frozenset
    actions: frozenset
    transitions: frozenset

    def __post_init__(self):
        for (src, act, dst) in self.transitions:
            if src not in self.states or dst not in self.states:
                raise InputError("transition endpoint %r or %r not a declared state" % (src, dst))
            if act not in self.actions:
                raise InputError("transition label %r not a declared action" % (act,))

    def successor_map(self):
        """state -> sorted tuple of (action, target), deterministic."""
        out = {s: [] for s in self.states}
        for (src, act, dst) in self.transitions:
            out[src].append((act, dst))
        return {s: tuple(sorted(set(v))) for s, v in out.items()}


class SuccessorOracle:
    """Deterministic successor enumeration over some (possibly infinite) LTS.

    Implementations must return finitely many successors per state, as a
    tuple in a fixed order, and must provide a ``game_key`` that determines
    the state's behaviour up to the given game depth (for plain finite
    systems the state itself; richer systems may collapse states that agree
    to that depth).
    """

    def successors(self, state):
        raise NotImplementedError

    def game_key(self, state, depth):
        """A hashable key for the state's behaviour over ``depth`` rounds.

        The contract: states with equal keys at depth k, from this oracle or
        from any other, are k-bisimilar.  ``GameContext`` answers a pair
        with equal keys as equivalent without playing, and shares one memo
        entry among all pairs with the same two keys, so a key may hide
        everything k rounds cannot expose but nothing more.
        """
        return (id(self), state)


class FiniteLtsOracle(SuccessorOracle):
    """Successor oracle over an explicit FiniteLts."""

    def __init__(self, lts):
        self.lts = lts
        self._succ = lts.successor_map()

    def successors(self, state):
        if state not in self._succ:
            raise InputError("unknown state %r" % (state,))
        return self._succ[state]

    def game_key(self, state, depth):
        return (id(self.lts), state)


@dataclass(frozen=True)
class Strategy:
    """One round of a winning attacker strategy.

    ``side`` says which state the attacker moves from (0 = left, 1 = right),
    ``target`` is the successor the attacker picks, and ``replies`` maps every
    defender answer with the same action to a sub-strategy that wins from the
    resulting pair.  No replies means the defender cannot answer at all.
    """

    side: int
    action: str
    target: object
    replies: tuple

    def depth(self):
        """Rounds needed: the strategy proves the pair apart at this level."""
        return 1 + max((sub.depth() for (_, sub) in self.replies), default=0)


@dataclass(frozen=True)
class EqLevelResult:
    """Outcome of an eq-level query.

    kind is one of "finite" (states differ at round value+1, certificate is a
    Strategy, or None from a level-only climb), "at_least" (no difference
    found up to the cutoff), or "omega" (proved bisimilar, certificate
    explains why; never produced by the plain bounded engine).
    """

    kind: str
    value: int
    certificate: object = field(default=None, compare=False)

    @classmethod
    def finite(cls, k, strategy=None):
        return cls("finite", k, strategy)

    @classmethod
    def at_least(cls, cutoff):
        return cls("at_least", cutoff)

    @classmethod
    def omega(cls, certificate=None):
        return cls("omega", -1, certificate)

    @property
    def is_finite(self):
        return self.kind == "finite"

    @property
    def is_omega(self):
        return self.kind == "omega"


class GameContext:
    """Memoised bounded bisimilarity games between two fixed oracles.

    Game results are cached per depth under each side's depth-determining
    abstraction, so repeated queries (and deeper queries that revisit the
    same sub-games) share work.  The context keeps game results and
    strategies only: successor lists are the oracles' own to memoize.
    """

    def __init__(self, left, right):
        self.left = left
        self.right = right
        self._memo = {}
        self._strategies = {}

    def bisim(self, s, t, k):
        """True iff no attacker wins within k rounds from (s, t)."""
        if k <= 0:
            return True
        lk = self.left.game_key(s, k)
        rk = self.right.game_key(t, k)
        if lk == rk:
            return True
        key = (k, lk, rk)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        res = self._covered(s, t, k)
        self._memo[key] = res
        return res

    def _covered(self, s, t, k):
        # plain loops: a round costs two Python frames (this and ``bisim``),
        # so the depth a game may recurse to is half the recursion limit
        ls = self.left.successors(s)
        rs = self.right.successors(t)
        for (a, s2) in ls:
            for (b, t2) in rs:
                if b == a and self.bisim(s2, t2, k - 1):
                    break
            else:
                return False
        for (b, t2) in rs:
            for (a, s2) in ls:
                if a == b and self.bisim(s2, t2, k - 1):
                    break
            else:
                return False
        return True

    def level(self, s, t, cutoff):
        """The eq-level of (s, t) up to ``cutoff``, without a strategy.

        Climbs the rounds and stops at the first one that separates the
        pair: Finite(k) carries no certificate, and ``distinguish(s, t,
        k + 1)`` gives the strategy where one is kept.  Two states without
        moves agree at every level, so they get AtLeast(cutoff) without a
        game.
        """
        if not self.left.successors(s) and not self.right.successors(t):
            return EqLevelResult.at_least(cutoff)
        for k in range(1, cutoff + 1):
            if not self.bisim(s, t, k):
                return EqLevelResult.finite(k - 1)
        return EqLevelResult.at_least(cutoff)

    def distinguish(self, s, t, k):
        """A winning attacker strategy for (s, t) at depth <= k.

        Pre: not self.bisim(s, t, k).  Strategies are memoised per concrete
        (s, t, k), so replies that reach the same pair share one sub-strategy
        and the result is a graph of distinct positions, not a tree.
        """
        key = (s, t, k)
        got = self._strategies.get(key)
        if got is None:
            got = self._strategies[key] = self._distinguish(s, t, k)
        return got

    def _distinguish(self, s, t, k):
        assert k >= 1
        ls = self.left.successors(s)
        rs = self.right.successors(t)
        for (a, s2) in ls:
            replies = [t2 for (b, t2) in rs if b == a]
            if all(not self.bisim(s2, t2, k - 1) for t2 in replies):
                subs = tuple((t2, self.distinguish(s2, t2, k - 1)) for t2 in replies)
                return Strategy(0, a, s2, subs)
        for (b, t2) in rs:
            replies = [s2 for (a, s2) in ls if a == b]
            if all(not self.bisim(s2, t2, k - 1) for s2 in replies):
                subs = tuple((s2, self.distinguish(s2, t2, k - 1)) for s2 in replies)
                return Strategy(1, b, t2, subs)
        raise AssertionError("no distinguishing move although the game is lost")


def bounded_bisim(oracle1, s, oracle2, t, k, ctx=None):
    """True iff s and t cannot be told apart within k alternating rounds."""
    if k < 0:
        raise InputError("game depth must be >= 0, got %r" % (k,))
    if ctx is None:
        ctx = GameContext(oracle1, oracle2)
    return ctx.bisim(s, t, k)


def eqlevel(oracle1, s, oracle2, t, cutoff, ctx=None):
    """The first level at which s and t disagree, bounded by ``cutoff``.

    This is ``GameContext.level`` with the strategy attached: Finite(k)
    comes with a winning attacker strategy of depth k+1; if the states agree
    all the way up to the cutoff the result is AtLeast(cutoff).
    """
    if cutoff < 1:
        raise InputError("cutoff must be >= 1, got %r" % (cutoff,))
    if ctx is None:
        ctx = GameContext(oracle1, oracle2)
    got = ctx.level(s, t, cutoff)
    if got.is_finite:
        return EqLevelResult.finite(got.value, ctx.distinguish(s, t, got.value + 1))
    return got


def region(oracle, start, radius, max_states=None):
    """All states reachable from ``start`` in at most ``radius`` steps.

    Stops early once no new states appear.  ``max_states`` is an optional
    guardrail: exceeding it raises BudgetError carrying the partial set, so
    a cap below 1, which ``start`` alone exceeds, raises with just ``start``.
    """
    if radius < 0:
        raise InputError("radius must be >= 0, got %r" % (radius,))
    seen = {start}
    if max_states is not None and max_states < 1:
        raise BudgetError("region cap %d admits no state" % (max_states,), partial=seen)
    frontier = [start]
    steps = 0
    while frontier and steps < radius:
        steps += 1
        fresh = []
        for s in frontier:
            for (_, t) in oracle.successors(s):
                if t not in seen:
                    seen.add(t)
                    fresh.append(t)
                    if max_states is not None and len(seen) > max_states:
                        raise BudgetError(
                            "region exceeded %d states before radius %d (at depth %d)"
                            % (max_states, radius, steps),
                            partial=seen,
                        )
        frontier = fresh
    return seen


def refine_blocks(states, succ):
    """Bisimilarity classes of a finite graph, by incremental refinement.

    ``states`` is the state list and ``succ`` maps each state to its
    (action, target) pairs.  Returns a block number per state; equal numbers
    mean bisimilar.  Block numbers are never reused, and every block keeps
    the signature its members share: the set of (action, target block)
    pairs.

    Round 1 signs every state; round r+1 re-signs only the predecessors of
    the states that moved to a new block in round r.  Any other state has
    the same successor blocks as one round earlier, so its signature is
    still its block's.  All of a round's signatures are computed before any
    state moves, so after round r the blocks are exactly r-step
    bisimilarity, as with full rounds.  Within a block, the group that keeps
    the block's number is the one whose signature equals the block's, when
    some member was not re-signed; otherwise it is the largest group (the
    first one signed on a tie).  Every other group moves to a new block.
    Refinement stops when no state moves.
    """
    block = dict.fromkeys(states, 0)
    size = [len(block)]
    shared = [None]
    pred = {s: [] for s in states}
    for s in states:
        for (_, t) in succ[s]:
            pred[t].append(s)
    dirty = states
    while dirty:
        groups = {}
        for s in dirty:
            sig = frozenset((a, block[t]) for (a, t) in succ[s])
            groups.setdefault(block[s], {}).setdefault(sig, []).append(s)
        moved = []
        for (b, by_sig) in groups.items():
            if sum(map(len, by_sig.values())) < size[b]:
                keep = shared[b]
            else:
                keep = max(by_sig, key=lambda g: len(by_sig[g]))
                shared[b] = keep
            for (sig, group) in by_sig.items():
                if sig == keep:
                    continue
                size[b] -= len(group)
                for s in group:
                    block[s] = len(size)
                size.append(len(group))
                shared.append(sig)
                moved.extend(group)
        dirty = list(dict.fromkeys(p for t in moved for p in pred[t]))
    return block


def quotient_finite(lts):
    """Collapse a finite LTS to its bisimilarity classes.

    Returns (quotient LTS, mapping from original state to class name).  The
    classes are the blocks of ``refine_blocks``, which re-signs only the
    states whose successors changed block.  Class names are derived from the
    smallest member, so the result is deterministic.
    """
    states = sorted(lts.states)
    if not states:
        return FiniteLts(frozenset(), lts.actions, frozenset()), {}
    block = refine_blocks(states, lts.successor_map())
    members = {}
    for s in states:
        members.setdefault(block[s], []).append(s)
    names = {b: "[%s]" % min(ss) for b, ss in members.items()}
    mapping = {s: names[block[s]] for s in states}
    qtrans = frozenset((mapping[src], act, mapping[dst]) for (src, act, dst) in lts.transitions)
    quotient = FiniteLts(frozenset(names.values()), lts.actions, qtrans)
    return quotient, mapping
