"""End-to-end acceptance run: ten checks, one test each.

Every check pits the library against an independent reference
implementation from oracles.py, on seeded random systems or on the
hand-built processes the rest of the suite also uses.  Certificates
produced along the way are collected and re-verified wholesale by the
ninth check.  Each test finishes by printing a single PASS line, so a
verbose run reads as a checklist.
"""

import itertools
import random
import time

from pdabisim import (
    AnalysisConfig,
    Config,
    FiniteLts,
    FiniteLtsOracle,
    GameContext,
    Pda,
    PdaOracle,
    Rule,
    StackWord,
    StairSearch,
    apply_set_transformer,
    bisim_pda_vs_finite,
    bounded_bisim,
    certs,
    compute_transformers,
    decide_regularity,
    eqlevel_configs,
    pump_bound,
    quotient_finite,
    verify_witness,
)
from pdabisim.pda import normalize_rules
from pdabisim.reachability import reach_automaton
from pdabisim.regularity import pumped_config

from oracles import (
    OracleBudget,
    automaton_accepts,
    bounded_reachable,
    closure_violations,
    emptying_search,
    game_eqlevel,
    lts_successors,
    pda_moves,
    random_lts,
    random_pda,
    random_stack,
    tree_bisim,
)


def fin(control, *symbols):
    return Config(control, StackWord.finite(symbols))


COUNTER = Pda(
    controls=frozenset(["p"]),
    stack_alphabet=frozenset(["X", "A"]),
    actions=frozenset(["a", "b"]),
    rules=(
        Rule("p", "X", "a", "p", ("A", "X")),
        Rule("p", "A", "a", "p", ("A", "A")),
        Rule("p", "A", "b", "p", ()),
    ),
)
COUNTER_START = fin("p", "X")

GROWING = Pda(
    controls=frozenset(["p"]),
    stack_alphabet=frozenset(["X"]),
    actions=frozenset(["a", "b"]),
    rules=(
        Rule("p", "X", "a", "p", ("X", "X")),
        Rule("p", "X", "b", "p", ("X",)),
    ),
)
GROWING_START = fin("p", "X")

DEADLOCK = Pda(
    controls=frozenset(["p"]),
    stack_alphabet=frozenset(["X"]),
    actions=frozenset(["a"]),
    rules=(),
)


# ---------------------------------------------------------------------------
# shared random pool and certificate collection

_POOL = None

CERT_DOCS = []


def _certified_unreachable(pda, aut, want=100, attempts=5000):
    """Probes the saturated automaton rejects, found by seeded sampling.

    Rejection is decided by the independent path reader, so once the
    automaton has been confirmed closed and accepting the start, every
    returned probe is provably unreachable.
    """
    rng = random.Random(77)
    controls = sorted(pda.controls)
    symbols = sorted(pda.stack_alphabet)
    out = []
    for _ in range(attempts):
        control = rng.choice(controls)
        word = random_stack(rng, symbols, max_len=6)
        if not automaton_accepts(aut, control, word):
            out.append((control, word))
            if len(out) >= want:
                break
    return out


def shared_pool():
    """Fifty seeded random pdas, shared by the checks that need a corpus.

    Candidates whose reachable set covers every sampled configuration are
    skipped: such degenerate single-control machines admit no unreachable
    probes at all, so the membership check could not exercise its negative
    side on them.
    """
    global _POOL
    if _POOL is not None:
        return _POOL
    pool = []
    seed = 1000
    while len(pool) < 50:
        pda = random_pda(random.Random(seed))
        seed += 1
        control = sorted(pda.controls)[0]
        bottom = sorted(pda.stack_alphabet)[0]
        aut = reach_automaton(pda, fin(control, bottom))
        if len(_certified_unreachable(pda, aut)) >= 100:
            pool.append(pda)
    _POOL = pool
    return pool


# ---------------------------------------------------------------------------
# 1. bounded games on finite systems agree with plain tree unfolding


def test_criterion_01_bounded_games_match_tree_unfolding():
    rng = random.Random(101)
    systems = 0
    pairs = 0
    for _ in range(200):
        lts = random_lts(rng)
        succ = lts_successors(lts)
        oracle = FiniteLtsOracle(lts)
        ctx = GameContext(oracle, oracle)
        memo = {}
        states = sorted(lts.states)
        for s in states:
            for t in states:
                for k in range(0, 7):
                    got = bounded_bisim(oracle, s, oracle, t, k, ctx=ctx)
                    assert got == tree_bisim(succ, s, t, k, memo), (s, t, k)
                pairs += 1
        systems += 1
    assert systems == 200 and pairs > 0
    print("criterion 01 PASS: %d systems, %d state pairs, levels 0..6" % (systems, pairs))


# ---------------------------------------------------------------------------
# 2. eq-levels between configurations agree with brute-force game unfolding


def test_criterion_02_eqlevels_match_game_unfolding():
    rng = random.Random(102)
    finite_count = 0
    deep_count = 0
    resamples = 0
    for pda in shared_pool():
        controls = sorted(pda.controls)
        symbols = sorted(pda.stack_alphabet)
        memo = {}
        done = 0
        max_len = 3
        while done < 20:
            lc, ls = rng.choice(controls), random_stack(rng, symbols, max_len=max_len)
            rc, rs = rng.choice(controls), random_stack(rng, symbols, max_len=max_len)
            try:
                want = game_eqlevel(pda, (lc, ls), (rc, rs), 10, memo, 120000)
            except OracleBudget:
                # the reference unfolding blew its memo budget on this pair;
                # draw a shorter one so the comparison stays exact
                resamples += 1
                assert resamples < 400, "reference unfolding kept running dry"
                memo = {}
                max_len = 2
                continue
            left = Config(lc, StackWord.finite(ls))
            right = Config(rc, StackWord.finite(rs))
            got = eqlevel_configs(pda, left, right, cutoff=10, omega_budget=200)
            if got.is_finite:
                assert want == ("finite", got.value), (lc, ls, rc, rs, want, got.value)
                finite_count += 1
                if got.certificate is not None and finite_count <= 30:
                    CERT_DOCS.append(certs.eq_level_document(pda, left, right, got))
            else:
                assert want == ("at_least", 10), (lc, ls, rc, rs, want)
                deep_count += 1
                if got.is_omega and deep_count <= 10:
                    CERT_DOCS.append(certs.eq_level_document(pda, left, right, got))
            done += 1
    assert finite_count + deep_count == 1000
    print(
        "criterion 02 PASS: 1000 pairs exact (%d finite, %d at-least-10, %d resampled)"
        % (finite_count, deep_count, resamples)
    )


# ---------------------------------------------------------------------------
# 3. a stack suffix below k pushed symbols cannot matter before level k


def test_criterion_03_deep_suffixes_invisible_within_prefix_depth():
    rng = random.Random(103)
    pool = shared_pool()
    contexts = {}
    checked = 0
    while checked < 1000:
        pda = pool[rng.randrange(len(pool))]
        key = id(pda)
        if key not in contexts:
            oracle = PdaOracle(pda)
            contexts[key] = (oracle, GameContext(oracle, oracle))
        (oracle, ctx) = contexts[key]
        control = rng.choice(sorted(pda.controls))
        symbols = sorted(pda.stack_alphabet)
        alpha = random_stack(rng, symbols, max_len=4, min_len=1)
        one = random_stack(rng, symbols, max_len=4)
        two = random_stack(rng, symbols, max_len=4)
        left = Config(control, StackWord.finite(alpha + one))
        right = Config(control, StackWord.finite(alpha + two))
        assert bounded_bisim(oracle, left, oracle, right, len(alpha), ctx=ctx), (
            control,
            alpha,
            one,
            two,
        )
        checked += 1
    print("criterion 03 PASS: 1000 shared-prefix pairs, never split before the pop")


# ---------------------------------------------------------------------------
# 4. membership in the reachability automaton, both directions


def test_criterion_04_membership_agrees_with_explicit_search():
    enumerated = 0
    probed = 0
    for pda in shared_pool():
        control = sorted(pda.controls)[0]
        bottom = sorted(pda.stack_alphabet)[0]
        start = fin(control, bottom)
        aut = reach_automaton(pda, start)

        # positive side: everything a bounded explicit search reaches is a member
        explored = bounded_reachable(pda, control, (bottom,), 8, 12)
        for (q, w) in sorted(explored):
            assert automaton_accepts(aut, q, w), (q, w)
        enumerated += len(explored)

        # negative side: the automaton is independently confirmed to be an
        # invariant (start accepted, closed under every rule), after which
        # path rejection proves unreachability
        (norm, _) = normalize_rules(pda)
        assert automaton_accepts(aut, control, (bottom,))
        assert closure_violations(norm, aut) == []
        probes = _certified_unreachable(pda, aut)
        assert len(probes) == 100
        for (q, w) in probes:
            assert not automaton_accepts(aut, q, w), (q, w)
        probed += len(probes)
    assert probed == 5000
    print(
        "criterion 04 PASS: %d reachable configurations accepted, %d certified"
        " unreachable probes rejected" % (enumerated, probed)
    )


# ---------------------------------------------------------------------------
# 5. emptying transformers match shortest-derivation search


def test_criterion_05_transformers_match_emptying_derivations():
    triples_checked = 0
    for pda in shared_pool():
        table = compute_transformers(pda)
        horizon = 2 * table.bound + 8
        want = {}
        for control in sorted(pda.controls):
            for symbol in sorted(pda.stack_alphabet):
                found = emptying_search(pda, control, symbol, horizon)
                for (end, steps) in found.items():
                    want[(control, symbol, end)] = steps
        got = dict(table.shortest)
        assert set(got) == set(table.triples) == set(want)
        for key in sorted(want):
            assert got[key] == want[key], (key, got[key], want[key])
            assert got[key] <= table.bound
        assert table.bound == (max(got.values()) if got else 0)
        triples_checked += len(want)

    rng = random.Random(105)
    pool = shared_pool()
    for _ in range(500):
        pda = pool[rng.randrange(len(pool))]
        table = compute_transformers(pda)
        controls = sorted(pda.controls)
        word = random_stack(rng, sorted(pda.stack_alphabet), max_len=4, min_len=1)
        small = set(rng.sample(controls, rng.randrange(len(controls) + 1)))
        big = small | set(rng.sample(controls, rng.randrange(len(controls) + 1)))
        assert apply_set_transformer(table, small, word) <= apply_set_transformer(
            table, big, word
        )
    print(
        "criterion 05 PASS: %d emptying triples exact with per-triple bounds,"
        " 500 monotonicity samples" % triples_checked
    )


# ---------------------------------------------------------------------------
# 6. deciding a process against finite systems, exhaustively for the counter


def _screen_survivors(rows, k):
    """States a finite system could still offer against the counter start.

    Mirrors the first k rounds of the game from (p, [X]): level one needs
    the action set {a}, level two additionally needs every a-successor to
    offer both actions, level three needs those successors to behave like
    the one-count configuration for two more rounds.  Masks are bit sets
    over the system's states.
    """
    both = 0
    only_a = 0
    for (i, (ra, rb)) in enumerate(rows):
        if ra and rb:
            both |= 1 << i
        elif ra:
            only_a |= 1 << i
    if k == 1:
        return only_a
    if k == 2:
        out = 0
        for (i, (ra, rb)) in enumerate(rows):
            if ra and not rb and not (ra & ~both):
                out |= 1 << i
        return out
    second = 0
    for (i, (ra, rb)) in enumerate(rows):
        if ra and rb and not (ra & ~both) and not (rb & ~only_a):
            second |= 1 << i
    out = 0
    for (i, (ra, rb)) in enumerate(rows):
        if ra and not rb and not (ra & ~second):
            out |= 1 << i
    return out


def _rows_to_lts(rows):
    n = len(rows)
    transitions = set()
    for (i, (ra, rb)) in enumerate(rows):
        for j in range(n):
            if ra >> j & 1:
                transitions.add(("t%d" % i, "a", "t%d" % j))
            if rb >> j & 1:
                transitions.add(("t%d" % i, "b", "t%d" % j))
    states = frozenset("t%d" % i for i in range(n))
    return FiniteLts(states, frozenset(["a", "b"]), frozenset(transitions))


def _canonical_pair(rows, state):
    """Smallest relabeling of (system, state) under state permutations."""
    n = len(rows)
    best = None
    for perm in itertools.permutations(range(n)):
        inv = [0] * n
        for (i, p) in enumerate(perm):
            inv[p] = i

        def remap(mask):
            out = 0
            for j in range(n):
                if mask >> j & 1:
                    out |= 1 << inv[j]
            return out

        arranged = [None] * n
        for i in range(n):
            arranged[inv[i]] = (remap(rows[i][0]), remap(rows[i][1]))
        key = (tuple(arranged), inv[state])
        if best is None or key < best:
            best = key
    return best


def _cross_bisim(pda, config, succ, state, k, memo):
    """Bounded game between a pda configuration and a finite-system state.

    Independent of the library games: pda moves come straight off the rule
    list, system moves off the transition table.  The depth strictly drops
    on every recursion, so plain memoization is enough.
    """
    if k == 0:
        return True
    key = (config, state, k)
    if key in memo:
        return memo[key]
    left = pda_moves(pda, config[0], config[1])
    right = sorted(succ.get(state, ()))
    ok = all(
        any(a == action and _cross_bisim(pda, c, succ, t, k - 1, memo) for (a, t) in right)
        for (action, c) in left
    ) and all(
        any(a == action and _cross_bisim(pda, c, succ, t, k - 1, memo) for (a, c) in left)
        for (action, t) in right
    )
    memo[key] = ok
    return ok


def test_criterion_06_finite_system_decision_both_ways():
    loop = FiniteLts(
        frozenset(["f"]),
        frozenset(["a", "b"]),
        frozenset([("f", "a", "f"), ("f", "b", "f")]),
    )
    t0 = time.monotonic()
    positive = bisim_pda_vs_finite(GROWING, GROWING_START, loop, "f")
    assert positive.equivalent
    assert time.monotonic() - t0 < 10.0

    # the counter start is equivalent to no system with at most three states:
    # screen the full enumeration by the first n rounds of the game, then run
    # the decider on every surviving pair (up to isomorphism)
    survivors = {}
    screened_out = []
    sampler = random.Random(106)
    for n in (1, 2, 3):
        for combo in itertools.product(range(1 << n), repeat=2 * n):
            rows = tuple((combo[2 * i], combo[2 * i + 1]) for i in range(n))
            mask = _screen_survivors(rows, n)
            for i in range(n):
                if mask >> i & 1:
                    key = _canonical_pair(rows, i)
                    if key not in survivors:
                        survivors[key] = (rows, i)
                elif sampler.random() < 0.0005:
                    screened_out.append((rows, i))
    assert len(survivors) == 192

    # the screen itself is validated against an independent bounded game,
    # in both directions
    pool = sorted(survivors.values())
    start_raw = ("p", ("X",))
    for (rows, i) in random.Random(61).sample(pool, 60):
        succ = lts_successors(_rows_to_lts(rows))
        assert _cross_bisim(COUNTER, start_raw, succ, "t%d" % i, len(rows), {})
    audit = random.Random(62).sample(screened_out, 120)
    for (rows, i) in audit:
        succ = lts_successors(_rows_to_lts(rows))
        assert not _cross_bisim(COUNTER, start_raw, succ, "t%d" % i, len(rows), {})

    slowest = 0.0
    for (rows, i) in pool:
        lts = _rows_to_lts(rows)
        t0 = time.monotonic()
        res = bisim_pda_vs_finite(COUNTER, COUNTER_START, lts, "t%d" % i)
        slowest = max(slowest, time.monotonic() - t0)
        assert not res.equivalent, (rows, i)

    # screened-out states fail within the first n rounds, which the decider
    # reports as a finite root level; spot-check that shortcut end to end
    root_docs = 0
    for (rows, i) in audit[:40]:
        lts = _rows_to_lts(rows)
        t0 = time.monotonic()
        res = bisim_pda_vs_finite(COUNTER, COUNTER_START, lts, "t%d" % i)
        slowest = max(slowest, time.monotonic() - t0)
        assert not res.equivalent
        assert res.root.is_finite
        if res.root.certificate is not None and root_docs < 5:
            CERT_DOCS.append(certs.comparison_root_document(COUNTER, res))
            root_docs += 1
    assert slowest < 10.0
    print(
        "criterion 06 PASS: growing matches the one-state loop; counter beats"
        " every system up to 3 states (192 survivor classes decided, slowest"
        " %.2fs, 120 screened-out pairs audited)" % slowest
    )


# ---------------------------------------------------------------------------
# 7. the regularity decision on the three reference processes


def test_criterion_07_regularity_verdicts_with_certificates():
    t0 = time.monotonic()
    negative = decide_regularity(COUNTER, COUNTER_START)
    assert time.monotonic() - t0 < 30.0
    assert (negative.kind, negative.exactness) == ("nonregular", "certified")
    evidence = negative.certificate
    check = verify_witness(PdaOracle(COUNTER), evidence.witness)
    assert check.verdict == "verified"
    assert check.certified
    bound = check.bound
    cycle = evidence.witness.pump.cycle_length
    ctx = GameContext(PdaOracle(COUNTER), PdaOracle(COUNTER))
    stages = [bound, bound + cycle, bound + 2 * cycle]
    got = [
        ctx.level(pumped_config(evidence.witness.loop, m), evidence.witness.c_inf, 64)
        for m in stages
    ]
    assert (got[0].kind, got[0].value) == (check.base.kind, check.base.value)
    for (m, r) in zip(stages, got):
        assert r.kind == "finite"
        assert r.value >= m
    levels = [r.value for r in got]
    assert levels[0] < levels[1] < levels[2]
    CERT_DOCS.append(certs.verdict_document(COUNTER, COUNTER_START, negative))

    t0 = time.monotonic()
    positive = decide_regularity(GROWING, GROWING_START)
    assert time.monotonic() - t0 < 30.0
    assert (positive.kind, positive.exactness) == ("regular", "certified")
    comparison = positive.certificate
    assert len(comparison.lts.states) == 1
    again = bisim_pda_vs_finite(
        GROWING, GROWING_START, comparison.lts, comparison.finite_state
    )
    assert again.equivalent
    CERT_DOCS.append(certs.verdict_document(GROWING, GROWING_START, positive))

    t0 = time.monotonic()
    halted = decide_regularity(DEADLOCK, fin("p", "X"))
    assert time.monotonic() - t0 < 30.0
    assert (halted.kind, halted.exactness) == ("regular", "certified")
    CERT_DOCS.append(certs.verdict_document(DEADLOCK, fin("p", "X"), halted))
    print(
        "criterion 07 PASS: counter nonregular (bound %d, base %d, levels"
        " rising past it), growing regular via a one-state system, deadlock"
        " regular" % (bound, check.base.value)
    )


# ---------------------------------------------------------------------------
# 8. the pump bound decomposes as expected and its level term reproduces


def _canon_periodic(prefix, period):
    """Normal form of prefix + repeated period, built from scratch."""
    n = len(period)
    for d in range(1, n + 1):
        if n % d == 0 and period == period[:d] * (n // d):
            period = period[:d]
            break
    prefix = list(prefix)
    while prefix and period and prefix[-1] == period[-1]:
        prefix.pop()
        period = period[-1:] + period[:-1]
    return (tuple(prefix), tuple(period))


def _periodic_moves(pda, state):
    (control, prefix, period) = state
    if prefix:
        (top, rest) = (prefix[0], prefix[1:])
    elif period:
        (top, rest) = (period[0], period[1:])
    else:
        return []
    out = []
    for rule in sorted(pda.rules):
        if rule.control == control and rule.symbol == top:
            (new_prefix, new_period) = _canon_periodic(rule.push + rest, period)
            out.append((rule.action, (rule.target, new_prefix, new_period)))
    return out


def test_criterion_08_pump_bound_decomposition():
    candidate = None
    for found in StairSearch(PdaOracle(COUNTER, AnalysisConfig(path_budget=500)), COUNTER_START):
        candidate = found
        break
    assert candidate is not None
    assert (candidate.control, candidate.symbol, candidate.period) == ("p", "A", ("A",))

    pump = pump_bound(PdaOracle(COUNTER), candidate)
    assert pump.preperiod == 0
    assert pump.cycle_length == 1
    assert pump.limit_controls == ("p",)
    assert pump.levels.exact
    assert pump.bound == 1 + pump.levels.value + pump.preperiod + pump.cycle_length

    # reproduce the level term by brute force: enumerate the region around
    # the limit configuration with an independent successor function; for
    # the counter every move leads straight back to the limit point, so the
    # region is a single configuration, no pair survives to be compared,
    # and the largest finite level over the region is zero
    limit = ("p", (), ("A",))
    assert _canon_periodic((), ("A", "A")) == ((), ("A",))
    assert _canon_periodic(("A", "A"), ("A",)) == ((), ("A",))
    seen = {limit}
    frontier = [limit]
    for _ in range(4):
        fresh = []
        for state in frontier:
            for (_, succ) in _periodic_moves(COUNTER, state):
                if succ not in seen:
                    seen.add(succ)
                    fresh.append(succ)
        frontier = fresh
    assert seen == {limit}
    region_pairs = [
        (one, two) for one in sorted(seen) for two in sorted(seen) if one < two
    ]
    assert region_pairs == []
    reproduced = 0
    assert reproduced == pump.levels.value
    print(
        "criterion 08 PASS: pump bound %d = 1 + %d + %d + %d, level term"
        " reproduced from a one-point region"
        % (pump.bound, pump.levels.value, pump.preperiod, pump.cycle_length)
    )


# ---------------------------------------------------------------------------
# 9. every certificate collected above re-verifies from its own content


def _baseline_documents():
    """A fixed set of documents, one per certificate kind.

    Keeps the check meaningful when this test runs on its own rather than
    after the collecting tests.
    """
    docs = []
    split = eqlevel_configs(COUNTER, fin("p", "X"), fin("p", "A", "X"), cutoff=8)
    assert split.is_finite
    docs.append(certs.eq_level_document(COUNTER, fin("p", "X"), fin("p", "A", "X"), split))
    limit = Config("p", StackWord.repeating((), ("A",)))
    shifted = Config("p", StackWord.repeating(("A",), ("A",)))
    same = eqlevel_configs(COUNTER, limit, shifted, cutoff=8)
    assert same.is_omega
    docs.append(certs.eq_level_document(COUNTER, limit, shifted, same))
    docs.append(
        certs.verdict_document(
            COUNTER, COUNTER_START, decide_regularity(COUNTER, COUNTER_START)
        )
    )
    docs.append(
        certs.verdict_document(
            GROWING, GROWING_START, decide_regularity(GROWING, GROWING_START)
        )
    )
    return docs


def test_criterion_09_certificates_reverify():
    docs = CERT_DOCS + _baseline_documents()
    kinds = {}
    for doc in docs:
        reloaded = certs.loads(certs.dumps(doc))
        result = certs.check_document(reloaded)
        assert result.ok, (doc["kind"], result.detail)
        kinds[doc["kind"]] = kinds.get(doc["kind"], 0) + 1
    assert kinds.get("finite-level", 0) >= 1
    assert kinds.get("bisimulation", 0) >= 1
    assert kinds.get("witness", 0) >= 1
    assert kinds.get("regular", 0) >= 1
    summary = ", ".join("%d %s" % (kinds[k], k) for k in sorted(kinds))
    print("criterion 09 PASS: %d certificates re-verified (%s)" % (len(docs), summary))


# ---------------------------------------------------------------------------
# 10. the quotient of a finite system is minimal and behavior-preserving


def test_criterion_10_quotient_minimal_and_sound():
    rng = random.Random(110)
    systems = 0
    for _ in range(100):
        lts = random_lts(rng)
        (quotient, mapping) = quotient_finite(lts)
        k = len(lts.states)

        # one successor table over the disjoint union feeds the independent
        # tree games for both claims; dead states get explicit empty rows
        succ = {("o", s): set() for s in lts.states}
        succ.update({("q", s): set() for s in quotient.states})
        for (s, a, t) in lts.transitions:
            succ[("o", s)].add((a, ("o", t)))
        for (s, a, t) in quotient.transitions:
            succ[("q", s)].add((a, ("q", t)))
        memo = {}
        for s in sorted(lts.states):
            assert tree_bisim(succ, ("o", s), ("q", mapping[s]), k, memo), s
        classes = sorted(quotient.states)
        for one in classes:
            for two in classes:
                if one < two:
                    assert not tree_bisim(succ, ("q", one), ("q", two), k, memo), (one, two)
        systems += 1
    assert systems == 100
    print("criterion 10 PASS: 100 quotients minimal, every state matches its class")
