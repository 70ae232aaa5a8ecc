"""Equivalence levels between configurations, with certificates both ways.

The bounded game engine in ``lts`` answers "do these two states agree for k
rounds".  This module layers the pushdown-specific machinery on top of it:

* bisimulation certificates that rest on dead-tail absorption
  (``pda.absorb_dead_tail``), a semantics-preserving stack truncation that
  makes many growing-stack processes literally equal as configurations;
* ``eqlevel_configs``, which seeks the cheapest evidence first: one round
  of the game, equality after absorption, a shallow climb, the finite-graph
  route capped by the work done so far, and only then the full climb and
  the relation search; it returns an EqLevelResult whose certificate a
  third party can replay, the same one the plain order would give;
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
from .pda import (
    AbsorbingOracle,
    Config,
    PdaOracle,
    StackWord,
    TruncatedConfig,
    absorb_dead_tail,
    step,
    validate_config,
)
from .reachability import (
    TRUNCATION_DEPTH_LIMIT,
    completion,
    reach_automaton,
    reachable_key_cuts,
    reachable_truncations,
)
from .transformers import period_iteration


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


def check_coverage(oracle, certificate):
    """Re-verify a BisimCertificate against the rules alone.

    Deliberately independent of the search that produced the certificate:
    it recomputes every successor with ``step`` and consults nothing but
    the relation itself and dead-tail absorption, by ``oracle.table`` under
    a memo of its own.
    """
    (pda, table) = (oracle.pda, oracle.table)
    absorbed = {}

    def key(config):
        got = absorbed.get(config)
        if got is None:
            got = absorb_dead_tail(table, config)
            absorbed[config] = got
        return got

    rel = {_ordered_pair(key(c), key(d)) for (c, d) in certificate.pairs}
    root = _ordered_pair(key(certificate.root[0]), key(certificate.root[1]))
    if root[0] != root[1] and root not in rel:
        return False
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


def _closure_search(oracle, left, right, budget, agree):
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


def _raw_strategy(oracle, strategy, left, right):
    """``strategy``, won on the absorbed graph, replayed from ``left`` and ``right``.

    Absorbing a raw successor gives the absorption of the matching successor
    of the absorbed configuration, so every raw move follows the
    sub-strategy of its absorption, and the result wins on raw ``step``.
    """
    (mover, other) = (left, right) if strategy.side == 0 else (right, left)
    target = next(
        c for (a, c) in step(oracle.pda, mover)
        if a == strategy.action and oracle.absorb(c) == strategy.target
    )
    subs = dict(strategy.replies)
    replies = []
    for (a, reply) in step(oracle.pda, other):
        if a == strategy.action:
            pair = (target, reply) if strategy.side == 0 else (reply, target)
            sub = _raw_strategy(oracle, subs[oracle.absorb(reply)], *pair)
            replies.append((reply, sub))
    return Strategy(strategy.side, strategy.action, target, tuple(replies))


def _finite_graph_route(oracle, left, right, cap):
    """Decide the pair exactly when both absorbed regions are finite.

    Explores each side's absorbed successor graph up to ``cap`` states; on
    success the question reduces to plain partition refinement on a finite
    graph.  A region is either found whole or blows the cap, so a lower cap
    never changes an answer, it only gives up sooner.  ``left`` and
    ``right`` are raw configurations: a separating strategy is played on
    the absorbed graph and replayed on them.  Returns an EqLevelResult, or
    None when a region blows the cap (a cap of 0 turns the route off).
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
            exact.value, _raw_strategy(oracle, exact.certificate, *raw)
        )
    pairs = _closure_search(
        oracle, left, right, len(states) ** 2 + 1, lambda a, b: block[a] == block[b]
    )
    if pairs is None:
        return None
    cert = BisimCertificate("finite-graph", _ordered_pair(left, right), pairs)
    if not check_coverage(oracle, cert):
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
    oracle, left, right, budget=AnalysisConfig.omega_budget, probe_depth=6, ctx=None
):
    """Try to produce a checkable proof that two configurations are bisimilar.

    Three arguments are attempted in order of cost: equality after dead-tail
    absorption, exhaustive comparison of finite absorbed regions of up to
    ``budget`` states, and a greedy self-covering relation search whose
    defender choices are guided by bounded probes in ``ctx`` (a ``budget``
    of 0 leaves only the first).  ``oracle`` is the analysis' ``PdaOracle``;
    the arguments run on its ``absorbing`` view, and the probes, without a
    ``ctx``, in a fresh ``GameContext`` on ``oracle``.  Returns an
    EqLevelResult ("omega", or "finite" when the finite-graph route decides
    negatively) or None when nothing sticks.  ``eqlevel_configs`` tries the
    first two arguments earlier, under lower caps, and calls this only for
    the pairs they leave.
    """
    absorbing = oracle.absorbing
    equal = _certify_equal(absorbing, left, right)
    if equal is not None or budget < 1:
        return equal
    finite = _finite_graph_route(absorbing, left, right, budget)
    if finite is not None:
        return finite
    a = absorbing.absorb(left)
    b = absorbing.absorb(right)
    probe_ctx = ctx if ctx is not None else GameContext(oracle, oracle)

    def agree(x, y):
        return probe_ctx.bisim(x, y, probe_depth)

    pairs = _closure_search(absorbing, a, b, budget, agree)
    if pairs is not None:
        cert = BisimCertificate("closure", _ordered_pair(a, b), pairs)
        if check_coverage(oracle, cert):
            return EqLevelResult.omega(cert)
    return None


def eqlevel_configs(
    pda,
    left,
    right,
    cutoff=AnalysisConfig.cutoff,
    omega_budget=AnalysisConfig.omega_budget,
):
    """The equivalence level of two configurations of one process.

    A first disagreement at level k yields Finite(k) with a winning attacker
    strategy; a proof of bisimilarity yields Omega with a relation;
    otherwise the honest AtLeast(cutoff) stands.  The evidence is sought
    cheapest first (see ``_eqlevel_ladder``): round one on the raw
    configurations, which needs no transformer table; equality after
    dead-tail absorption; the climb to the probe depth min(8, cutoff); the
    finite-graph route under a cap set by the work done so far; the climb
    to ``cutoff``; and then the rest of ``certify_bisimilar``.  Each step
    only moves evidence earlier, so the answer and its certificate are
    those of climbing to ``cutoff`` first and certifying after.  The call
    owns its ``PdaOracle``, and so its transformer table.
    """
    oracle = PdaOracle(pda)
    ctx = GameContext(oracle, oracle)
    return _eqlevel_ladder(ctx, left, right, cutoff, omega_budget, _strategy_climb)


def _strategy_climb(ctx, left, right, cutoff):
    return eqlevel(ctx.left, left, ctx.right, right, cutoff, ctx=ctx)


def _eqlevel_ladder(ctx, left, right, cutoff, omega_budget, climb):
    """The ladder of ``eqlevel_configs`` in ``ctx``, climbing the levels with ``climb``.

    ``climb(ctx, left, right, k)`` is ``_strategy_climb`` where the strategy
    is kept, or ``GameContext.level`` for a caller that reads only the
    level; a Finite answer of the latter carries no strategy, though one
    from the finite-graph route still does.

    The steps, cheapest first:

    1. round one on the raw pda; every pop floor is at least 1, so its game
       keys read no floor and a pair it separates builds no transformer
       table and absorbs nothing;
    2. equality after absorption;
    3. the climb to the probe depth min(8, cutoff);
    4. the finite-graph route, once, kept only when it proves the pair
       bisimilar.  Its region cap is the number of states this call has
       newly stepped on the oracle ``ctx`` plays on (the growth of its
       ``expanded``), never more than ``omega_budget``, so no region holds
       more states than the call's games stepped;
    5. the climb to ``cutoff``, whose rounds up to the probe depth are memo
       hits, and ``certify_bisimilar`` at the full budget.

    The answer is exact in the sense that it matches the plain order
    (equality, climb to ``cutoff``, ``certify_bisimilar``).  A level found
    early is the climb's first disagreement, reached by the same memoized
    games.  A pair the early route certifies is bisimilar, so the climb
    would reach AtLeast(cutoff), and a region complete under the lower cap
    is the one the full cap finds, so ``certify_bisimilar`` would return
    the same relation.  The absorbing view of the oracle ``ctx`` plays on
    serves the whole call.
    """
    oracle = ctx.left
    validate_config(oracle.pda, left)
    validate_config(oracle.pda, right)
    if cutoff < 1:
        raise InputError("cutoff must be >= 1, got %r" % (cutoff,))
    expanded = oracle.expanded
    bounded = climb(ctx, left, right, 1)
    if bounded.is_finite:
        return bounded
    absorbing = oracle.absorbing
    equal = _certify_equal(absorbing, left, right)
    if equal is not None:
        return equal
    probe_depth = min(8, cutoff)
    bounded = climb(ctx, left, right, probe_depth)
    if bounded.is_finite:
        return bounded
    cap = min(omega_budget, oracle.expanded - expanded)
    early = _finite_graph_route(absorbing, left, right, cap)
    if early is not None and early.is_omega:
        return early
    bounded = climb(ctx, left, right, cutoff)
    if bounded.is_finite:
        return bounded
    certified = certify_bisimilar(
        oracle, left, right, budget=omega_budget, probe_depth=probe_depth, ctx=ctx
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


def limit_level_bound(oracle, control, top, period):
    """Bound the finite eq-levels around the limit configuration.

    For the limit configuration (control, top period^w): iterate the period's
    control-set images to find the preperiod, cycle length and stable image
    L; then compare every configuration within the derivation radius of the
    limit against the limit configurations of L, recording the largest
    finite equivalence level.  Only the levels are read, so the climbs
    build no attacker strategy.  The games stop at the cutoff of
    ``oracle.config``, the region at its ``region_cap`` states, and each
    relation search at its ``pump_omega_budget`` pairs, all on the
    absorbing view of ``oracle``.  Returns (LevelBound, PeriodIteration).
    """
    (table, config) = (oracle.table, oracle.config)
    iteration = period_iteration(table, control, top, tuple(period))
    stable = sorted(iteration.cycle_set)
    if not stable:
        return LevelBound(0, True, 0), iteration
    reach = iteration.preperiod + iteration.cycle_length
    radius = (1 + len(period) * reach) * max(1, table.bound)
    absorbing = oracle.absorbing
    center = absorbing.absorb(Config(control, StackWord.repeating((top,), period)))
    exact = True
    try:
        around = region(absorbing, center, radius, max_states=config.region_cap)
    except BudgetError as blown:
        around = blown.partial
        exact = False
    limits = [absorbing.absorb(Config(p, StackWord.repeating((), period))) for p in stable]
    ctx = GameContext(absorbing, absorbing)
    value = 0
    pairs = 0
    for near in sorted(around, key=Config.sort_key):
        for lim in limits:
            pairs += 1
            got = ctx.level(near, lim, config.cutoff)
            if got.is_finite:
                value = max(value, got.value)
                continue
            settled = certify_bisimilar(
                oracle, near, lim, budget=config.pump_omega_budget, probe_depth=4
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
    lists the partners once per reachable depth-``level`` game key, not
    per truncation: its entry is the truncation holding just the key's
    kept symbols, and every truncation with that key has the same partners.
    ``unmatched`` lists every truncation without partners; any of them
    refutes equivalence, and ``counterexample`` is a reachable
    configuration realizing the first.  ``root`` holds the eq-level query
    between the inputs, bounded by ``level``.  ``automaton`` is the post*
    automaton the keys were read off, or None when the root game refuted
    the pair and no key was needed.
    """

    equivalent: bool
    level: int
    start: Config
    lts: object
    finite_state: str
    root: EqLevelResult
    matches: tuple        # sorted ((key truncation, (state, ...)), ...)
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
    return _compare_with_finite(PdaOracle(pda), config, lts, state, None)


def _compare_with_finite(pda_oracle, config, lts, state, aut):
    """``bisim_pda_vs_finite`` on ``pda_oracle``, reading the truncations off ``aut`` if given.

    ``aut`` must be ``reach_automaton(pda_oracle.pda, config)``; a caller
    that already holds it saves the rebuild.

    The games are played once per pda game key, not once per truncation:
    the reachable depth-``level`` keys come straight off ``aut``
    (``reachable_key_cuts``), and each is played by its probe, the
    configuration holding just the key's kept symbols.  That is exact:
    configurations with one key at depth ``level`` are ``level``-bisimilar,
    so every truncation with the key has the probe's partners.  Only when
    some key has no partner are the truncations enumerated, to list those
    whose key it is.
    """
    pda = pda_oracle.pda
    validate_config(pda, config)
    if state not in lts.states:
        raise InputError("unknown state %r" % (state,))
    level = len(lts.states)
    if level > TRUNCATION_DEPTH_LIMIT:
        raise BudgetError(
            "a finite system with %d states needs depth-%d truncations;"
            " the guardrail is %d" % (level, level, TRUNCATION_DEPTH_LIMIT)
        )
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
    states = sorted(lts.states)
    matches = []
    unmatched_keys = set()
    for (control, kept) in sorted(reachable_key_cuts(aut, pda_oracle.floors, level)):
        probe = Config(control, StackWord.finite(kept))
        partners = tuple(
            g
            for g in states
            if bounded_bisim(pda_oracle, probe, fin_oracle, g, level, ctx=ctx)
        )
        if partners:
            matches.append((TruncatedConfig(control, kept), partners))
        else:
            unmatched_keys.add(pda_oracle.game_key(probe, level))
    unmatched = []
    if unmatched_keys:
        unmatched = [
            t
            for t in sorted(reachable_truncations(aut, level))
            if pda_oracle.game_key(t.as_config(), level) in unmatched_keys
        ]
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
