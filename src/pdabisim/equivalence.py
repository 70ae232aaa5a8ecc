"""Equivalence levels between configurations, with certificates both ways.

The bounded game engine in ``lts`` answers "do these two states agree for k
rounds".  This module layers the pushdown-specific machinery on top of it:

* dead-tail absorption, a semantics-preserving stack truncation that makes
  many growing-stack processes literally equal as configurations;
* ``eqlevel_configs``, which answers configurations equal after absorption
  at once, climbs the levels for the others and then tries to certify full
  bisimilarity via a ladder of increasingly expensive arguments, returning
  an EqLevelResult whose certificate a third party can replay;
* the limit level bound used by the non-regularity pump argument;
* the decision procedure for "pushdown configuration vs finite system".
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import AnalysisConfig
from .errors import BudgetError, InputError
from .lts import (
    EqLevelResult,
    FiniteLtsOracle,
    GameContext,
    Strategy,
    bounded_bisim,
    eqlevel,
    refine_blocks,
    region,
)
from .pda import Config, PdaOracle, StackWord, step, validate_config
from .reachability import (
    TRUNCATION_DEPTH_LIMIT,
    completion,
    reach_automaton,
    reachable_truncations,
)
from .transformers import apply_set_transformer, cached_transformers, period_iteration


def absorb_dead_tail(pda, config):
    """Cut the stack at the first position that can never become the top.

    Walking the stack from the top while pushing the control set through the
    emptying relation, the set may become empty; from that point on no symbol
    is ever exposed, so the configuration behaves exactly like the one cut
    there.  The result is therefore interchangeable with the input in any
    behavioural question, and a finite stack often replaces an infinite one.
    """
    table = cached_transformers(pda)
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
    """

    def __init__(self, pda):
        super().__init__(pda)
        self._cache = {}

    def absorb(self, config):
        got = self._cache.get(config)
        if got is None:
            got = absorb_dead_tail(self.pda, config)
            self._cache[config] = got
        return got

    def successors(self, config):
        return [(a, self.absorb(c)) for (a, c) in step(self.pda, config)]


def _ordered_pair(c, d):
    return (c, d) if c.sort_key() <= d.sort_key() else (d, c)


@dataclass(frozen=True)
class BisimCertificate:
    """A finite relation witnessing bisimilarity of its ``root`` pair.

    Every pair's every move must be answered by the partner so that the two
    successors are either equal after dead-tail absorption or again a pair of
    the relation (in either orientation).  ``check_coverage`` re-verifies
    this from scratch; ``kind`` records which argument produced the relation.
    """

    kind: str     # "equal", "finite-graph" or "closure"
    root: tuple   # ordered absorbed pair
    pairs: tuple  # sorted ordered absorbed pairs, including the root


def check_coverage(pda, certificate):
    """Re-verify a BisimCertificate against the rules alone.

    Deliberately independent of the search that produced the certificate:
    it recomputes every successor and consults nothing but the relation
    itself and dead-tail absorption.
    """
    rel = set()
    for (c, d) in certificate.pairs:
        rel.add(_ordered_pair(absorb_dead_tail(pda, c), absorb_dead_tail(pda, d)))
    root = _ordered_pair(
        absorb_dead_tail(pda, certificate.root[0]),
        absorb_dead_tail(pda, certificate.root[1]),
    )
    if root[0] != root[1] and root not in rel:
        return False
    absorbed = {}

    def key(config):
        got = absorbed.get(config)
        if got is None:
            got = absorb_dead_tail(pda, config)
            absorbed[config] = got
        return got

    for (c, d) in sorted(rel, key=lambda p: p[0].sort_key() + p[1].sort_key()):
        for (x, y) in ((c, d), (d, c)):
            answers = step(pda, y)
            for (act, succ) in step(pda, x):
                ok = False
                for (act2, reply) in answers:
                    if act2 != act:
                        continue
                    (a, b) = (key(succ), key(reply))
                    if a == b or _ordered_pair(a, b) in rel:
                        ok = True
                        break
                if not ok:
                    return False
    return True


def _closure_search(pda, oracle, left, right, budget, agree):
    """Grow a candidate self-covering relation from (left, right).

    ``agree`` is the defender-choice heuristic: given two absorbed
    configurations, may they be assumed equivalent?  Wrong guesses are
    harmless (the final coverage check rejects them); the heuristic only
    decides which relation gets proposed.  Returns the sorted pair tuple, or
    None when a pair cannot be answered or the budget runs out.
    """
    root = _ordered_pair(oracle.absorb(left), oracle.absorb(right))
    rel = {root}
    todo = [root]
    while todo:
        (c, d) = todo.pop(0)
        for (x, y) in ((c, d), (d, c)):
            answers = oracle.successors(y)
            for (act, succ) in oracle.successors(x):
                replies = [b for (act2, b) in answers if act2 == act]
                if any(succ == b for b in replies):
                    continue
                if any(_ordered_pair(succ, b) in rel for b in replies):
                    continue
                chosen = None
                for b in sorted(replies, key=Config.sort_key):
                    if agree(succ, b):
                        chosen = b
                        break
                if chosen is None:
                    return None
                if len(rel) >= budget:
                    return None
                pair = _ordered_pair(succ, chosen)
                rel.add(pair)
                todo.append(pair)
    return tuple(sorted(rel, key=lambda p: p[0].sort_key() + p[1].sort_key()))


def _raw_strategy(pda, oracle, strategy, left, right):
    """``strategy``, won on the absorbed graph, replayed from ``left`` and ``right``.

    Absorbing a raw successor gives the absorption of the matching successor
    of the absorbed configuration, so every raw move follows the
    sub-strategy of its absorption, and the result wins on raw ``step``.
    """
    (mover, other) = (left, right) if strategy.side == 0 else (right, left)
    target = next(
        c for (a, c) in step(pda, mover)
        if a == strategy.action and oracle.absorb(c) == strategy.target
    )
    subs = dict(strategy.replies)
    replies = []
    for (a, reply) in step(pda, other):
        if a == strategy.action:
            pair = (target, reply) if strategy.side == 0 else (reply, target)
            sub = _raw_strategy(pda, oracle, subs[oracle.absorb(reply)], *pair)
            replies.append((reply, sub))
    return Strategy(strategy.side, strategy.action, target, tuple(replies))


def _finite_graph_route(pda, oracle, left, right, cap):
    """Decide the pair exactly when both absorbed regions are finite.

    Explores each side's absorbed successor graph up to ``cap`` states; on
    success the question reduces to plain partition refinement on a finite
    graph.  ``left`` and ``right`` are raw configurations: a separating
    strategy is played on the absorbed graph and replayed on them.  Returns
    an EqLevelResult, or None when a region blows the cap.
    """
    raw = (left, right)
    (left, right) = (oracle.absorb(left), oracle.absorb(right))
    try:
        reach_left = region(oracle, left, cap + 1, max_states=cap)
        reach_right = region(oracle, right, cap + 1, max_states=cap)
    except BudgetError:
        return None
    states = sorted(reach_left | reach_right, key=Config.sort_key)
    block = refine_blocks(states, {s: oracle.successors(s) for s in states})
    if block[left] != block[right]:
        exact = eqlevel(oracle, left, oracle, right, len(states) + 1)
        assert exact.is_finite, "refinement split the pair but no level separates it"
        return EqLevelResult.finite(
            exact.value, _raw_strategy(pda, oracle, exact.certificate, *raw)
        )
    pairs = _closure_search(
        pda, oracle, left, right, len(states) ** 2 + 1, lambda a, b: block[a] == block[b]
    )
    if pairs is None:
        return None
    cert = BisimCertificate("finite-graph", _ordered_pair(left, right), pairs)
    if not check_coverage(pda, cert):
        return None
    return EqLevelResult.omega(cert)


def _certify_equal(oracle, left, right):
    """The free argument: equality after dead-tail absorption.

    Absorption preserves behaviour, so configurations that absorb to the
    same one are bisimilar, and the one-pair relation proves it.  Returns an
    Omega EqLevelResult, or None when the absorbed configurations differ.
    """
    a = oracle.absorb(left)
    if a != oracle.absorb(right):
        return None
    return EqLevelResult.omega(BisimCertificate("equal", (a, a), ((a, a),)))


def certify_bisimilar(
    pda, left, right, budget=AnalysisConfig.omega_budget, probe_depth=6, ctx=None
):
    """Try to produce a checkable proof that two configurations are bisimilar.

    Three arguments are attempted in order of cost: equality after dead-tail
    absorption, exhaustive comparison of finite absorbed regions, and a
    greedy self-covering relation search whose defender choices are guided
    by bounded probes.  Returns an EqLevelResult ("omega", or "finite" when
    the finite-graph route decides negatively) or None when nothing sticks.
    """
    oracle = AbsorbingOracle(pda)
    equal = _certify_equal(oracle, left, right)
    if equal is not None:
        return equal
    finite = _finite_graph_route(pda, oracle, left, right, budget)
    if finite is not None:
        return finite
    a = oracle.absorb(left)
    b = oracle.absorb(right)
    probe_ctx = ctx if ctx is not None else GameContext(PdaOracle(pda), PdaOracle(pda))

    def agree(x, y):
        return probe_ctx.bisim(x, y, probe_depth)

    pairs = _closure_search(pda, oracle, a, b, budget, agree)
    if pairs is not None:
        cert = BisimCertificate("closure", _ordered_pair(a, b), pairs)
        if check_coverage(pda, cert):
            return EqLevelResult.omega(cert)
    return None


def eqlevel_configs(
    pda,
    left,
    right,
    cutoff=AnalysisConfig.cutoff,
    omega_budget=AnalysisConfig.omega_budget,
    ctx=None,
):
    """The equivalence level of two configurations of one process.

    Configurations equal after dead-tail absorption are answered Omega at
    once, without playing a round.  Otherwise levels are climbed up to
    ``cutoff``; a first disagreement yields Finite(k) with a winning
    attacker strategy.  If no disagreement shows up, the rest of the
    certification ladder runs; its success turns the answer into Omega with
    a self-covering relation, otherwise the honest AtLeast(cutoff) stands.
    """
    validate_config(pda, left)
    validate_config(pda, right)
    equal = _certify_equal(AbsorbingOracle(pda), left, right)
    if equal is not None:
        return equal
    oracle = PdaOracle(pda)
    if ctx is None:
        ctx = GameContext(oracle, oracle)
    bounded = eqlevel(oracle, left, oracle, right, cutoff, ctx=ctx)
    if bounded.is_finite:
        return bounded
    certified = certify_bisimilar(
        pda, left, right, budget=omega_budget, probe_depth=min(8, cutoff), ctx=ctx
    )
    if certified is not None:
        return certified
    return bounded


@dataclass(frozen=True)
class LevelBound:
    """An upper bound on the finite equivalence levels near a stack limit.

    ``exact`` records whether every examined pair was either separated at a
    finite level or certified bisimilar; if some pair ran into the cutoff or
    the region into its cap, the value is only a lower estimate of the true
    bound and everything derived from it inherits the qualification.
    """

    value: int
    exact: bool
    pairs: int


def limit_level_bound(pda, control, top, period, config=AnalysisConfig()):
    """Bound the finite eq-levels around the limit configuration.

    For the limit configuration (control, top period^w): iterate the period's
    control-set images to find the preperiod, cycle length and stable image
    L; then compare every configuration within the derivation radius of the
    limit against the limit configurations of L, recording the largest
    finite equivalence level.  The games stop at ``config.cutoff``, the
    region at ``config.region_cap`` states, and each relation search at
    ``config.pump_omega_budget`` pairs.  Returns (LevelBound,
    PeriodIteration).
    """
    table = cached_transformers(pda)
    iteration = period_iteration(table, control, top, tuple(period))
    stable = sorted(iteration.cycle_set)
    if not stable:
        return LevelBound(0, True, 0), iteration
    reach = iteration.preperiod + iteration.cycle_length
    radius = (1 + len(period) * reach) * max(1, table.bound)
    oracle = AbsorbingOracle(pda)
    center = oracle.absorb(Config(control, StackWord.repeating((top,), period)))
    exact = True
    try:
        around = region(oracle, center, radius, max_states=config.region_cap)
    except BudgetError as blown:
        around = blown.partial
        exact = False
    limits = [oracle.absorb(Config(p, StackWord.repeating((), period))) for p in stable]
    ctx = GameContext(oracle, oracle)
    value = 0
    pairs = 0
    for near in sorted(around, key=Config.sort_key):
        for lim in limits:
            pairs += 1
            got = eqlevel(oracle, near, oracle, lim, config.cutoff, ctx=ctx)
            if got.is_finite:
                value = max(value, got.value)
                continue
            settled = certify_bisimilar(
                pda, near, lim, budget=config.pump_omega_budget, probe_depth=4
            )
            if settled is None:
                exact = False
            elif settled.is_finite:
                value = max(value, settled.value)
    return LevelBound(value, exact, pairs), iteration


@dataclass(frozen=True)
class FiniteComparison:
    """Outcome of deciding pda configuration vs finite-system state.

    The configuration is equivalent to the state iff they agree for
    ``level`` rounds and every reachable depth-``level`` truncation agrees
    for ``level`` rounds with some state of the finite system.  ``matches``
    lists those partners per truncation; a truncation without partners
    refutes equivalence and ``counterexample`` is a reachable configuration
    realizing it.  ``root`` holds the eq-level query between the inputs,
    bounded by ``level``.  ``automaton`` is the post* automaton the
    truncations were read off, or None when the root game refuted the pair
    and no truncation was needed.
    """

    equivalent: bool
    level: int
    start: Config
    lts: object
    finite_state: str
    root: EqLevelResult
    matches: tuple        # sorted ((truncation, (state, ...)), ...)
    unmatched: tuple      # sorted truncations without any partner
    counterexample: object
    automaton: object


def bisim_pda_vs_finite(pda, config, lts, state):
    """Decide whether a configuration is bisimilar to a finite-system state.

    The game depth equals the number of states of the finite system; with
    that depth, agreement of the start pair plus agreement of every
    reachable truncation with some finite state is equivalent to full
    bisimilarity.  Everything the decision rests on is returned so it can be
    re-checked independently.  The root game is played first; the post*
    automaton is built only when it does not separate the pair, so a
    comparison refuted at its root carries no automaton.
    """
    return _compare_with_finite(pda, config, lts, state, None)


def _compare_with_finite(pda, config, lts, state, aut):
    """``bisim_pda_vs_finite``, reading the truncations off ``aut`` if given.

    ``aut`` must be ``reach_automaton(pda, config)``; a caller that already
    holds it saves the rebuild.

    Each truncation is matched against every finite state by a ``level``
    round game, but the partner tuple is computed once per pda game key.
    That is exact: ``GameContext.bisim`` answers a pair from its memo entry
    (level, pda key, finite key), since a pda key never equals a finite
    one, so after the first truncation with a key has played every state,
    any later truncation with that key gets the same answers.
    """
    validate_config(pda, config)
    if state not in lts.states:
        raise InputError("unknown state %r" % (state,))
    level = len(lts.states)
    if level > TRUNCATION_DEPTH_LIMIT:
        raise BudgetError(
            "a finite system with %d states needs depth-%d truncations;"
            " the guardrail is %d" % (level, level, TRUNCATION_DEPTH_LIMIT)
        )
    pda_oracle = PdaOracle(pda)
    fin_oracle = FiniteLtsOracle(lts)
    ctx = GameContext(pda_oracle, fin_oracle)
    root = eqlevel(pda_oracle, config, fin_oracle, state, level, ctx=ctx)
    if root.is_finite:
        return FiniteComparison(
            equivalent=False,
            level=level,
            start=config,
            lts=lts,
            finite_state=state,
            root=root,
            matches=(),
            unmatched=(),
            counterexample=config,
            automaton=None,
        )
    if aut is None:
        aut = reach_automaton(pda, config)
    truncations = sorted(
        reachable_truncations(aut, level), key=lambda t: (t.control, t.prefix)
    )
    states = sorted(lts.states)
    partners_of = {}        # pda game key -> partner tuple
    matches = []
    unmatched = []
    for trunc in truncations:
        probe = trunc.as_config()
        key = pda_oracle.game_key(probe, level)
        partners = partners_of.get(key)
        if partners is None:
            partners = tuple(
                g
                for g in states
                if bounded_bisim(pda_oracle, probe, fin_oracle, g, level, ctx=ctx)
            )
            partners_of[key] = partners
        if partners:
            matches.append((trunc, partners))
        else:
            unmatched.append(trunc)
    equivalent = not unmatched
    witness = completion(aut, unmatched[0], level) if unmatched else None
    return FiniteComparison(
        equivalent=equivalent,
        level=level,
        start=config,
        lts=lts,
        finite_state=state,
        root=root,
        matches=tuple(matches),
        unmatched=tuple(unmatched),
        counterexample=witness,
        automaton=aut,
    )
