"""Reference implementations the test suite checks the library against.

Everything here is recomputed from first principles: plain breadth-first
searches and explicit tree-unfolding recursions working straight off the
raw rule and transition data.  Nothing shares logic with the package
beyond the data containers, so agreement between the two is evidence and
not an accident of shared code.
"""

from pdabisim import FiniteLts, Pda, Rule, TruncatedConfig


class OracleBudget(Exception):
    """Raised when a reference search grows past its configured limit."""


# ---------------------------------------------------------------------------
# finite systems


def lts_successors(lts):
    """Per-state successor lists, recomputed from the raw triples."""
    succ = {s: [] for s in lts.states}
    for (s, a, t) in sorted(lts.transitions):
        succ[s].append((a, t))
    return succ


def tree_bisim(succ, s, t, k, memo=None):
    """k-round tree-unfolding equivalence on a finite system."""
    if memo is None:
        memo = {}
    if k <= 0:
        return True
    key = (s, t, k)
    if key not in memo:
        memo[key] = _tree_covers(succ, s, t, k, memo) and _tree_covers(
            succ, t, s, k, memo
        )
    return memo[key]


def _tree_covers(succ, s, t, k, memo):
    for (a, s2) in succ[s]:
        if not any(
            b == a and tree_bisim(succ, s2, t2, k - 1, memo) for (b, t2) in succ[t]
        ):
            return False
    return True


def tree_eqlevel(succ, s, t, cutoff, memo=None):
    """("finite", v) with v < cutoff, or ("at_least", cutoff)."""
    if memo is None:
        memo = {}
    for k in range(1, cutoff + 1):
        if not tree_bisim(succ, s, t, k, memo):
            return ("finite", k - 1)
    return ("at_least", cutoff)


# ---------------------------------------------------------------------------
# pushdown configurations with plain finite stacks


def pda_moves(pda, control, stack):
    """Successors of a finite-stack configuration, straight off the rules."""
    if not stack:
        return []
    out = []
    for rule in pda.rules:
        if rule.control == control and rule.symbol == stack[0]:
            out.append((rule.action, (rule.target, rule.push + stack[1:])))
    return out


def game_bisim(pda, c, d, k, memo, limit=None):
    """k-round unfolding equivalence between finite-stack configurations.

    ``c`` and ``d`` are (control, stack tuple) pairs.  ``limit`` caps the
    memo table; past it the search gives up with OracleBudget so a caller
    can resample rather than stall.
    """
    if k <= 0:
        return True
    key = (c, d, k)
    if key not in memo:
        if limit is not None and len(memo) > limit:
            raise OracleBudget("game memo exceeded %d entries" % limit)
        memo[key] = _game_covers(pda, c, d, k, memo, limit) and _game_covers(
            pda, d, c, k, memo, limit
        )
    return memo[key]


def _game_covers(pda, c, d, k, memo, limit):
    answers = pda_moves(pda, d[0], d[1])
    for (a, c2) in pda_moves(pda, c[0], c[1]):
        if not any(
            b == a and game_bisim(pda, c2, d2, k - 1, memo, limit)
            for (b, d2) in answers
        ):
            return False
    return True


def game_eqlevel(pda, c, d, cutoff, memo=None, limit=None):
    """("finite", v) with v < cutoff, or ("at_least", cutoff)."""
    if memo is None:
        memo = {}
    for k in range(1, cutoff + 1):
        if not game_bisim(pda, c, d, k, memo, limit):
            return ("finite", k - 1)
    return ("at_least", cutoff)


# ---------------------------------------------------------------------------
# reachability


def bounded_reachable(pda, control, stack, max_stack, max_depth):
    """Configurations reachable with bounded stack size and step count.

    Successors taller than ``max_stack`` are discarded, so the result is an
    under-approximation of the reachable set: everything in it really is
    reachable, and nothing else is claimed.
    """
    start = (control, tuple(stack))
    seen = {start}
    frontier = [start]
    for _ in range(max_depth):
        fresh = []
        for (p, w) in frontier:
            for (_, succ) in pda_moves(pda, p, w):
                if len(succ[1]) <= max_stack and succ not in seen:
                    seen.add(succ)
                    fresh.append(succ)
        if not fresh:
            break
        frontier = fresh
    return seen


def prefix_reachable(pda, control, stack, depth):
    """Reachable stack prefixes of length ``depth``, over-approximated.

    Abstract states are (control, prefix, cut): the concrete stack starts
    with ``prefix`` and, when ``cut`` is set, continues with an unknown
    suffix that may or may not be empty.  Every concrete run projects onto
    an abstract one, so a configuration whose projection is absent from the
    returned set is certainly unreachable.
    """
    alphabet = sorted(pda.stack_alphabet)

    def clip(word):
        if len(word) > depth:
            return (word[:depth], True)
        return (word, False)

    (w0, c0) = clip(tuple(stack))
    start = (control, w0, c0 or len(stack) > depth)
    seen = {start}
    frontier = [start]
    while frontier:
        fresh = []
        for (p, w, cut) in frontier:
            if w:
                tops = [(w[0], w[1:], cut)]
            elif cut:
                tops = [(y, (), True) for y in alphabet]
            else:
                tops = []
            for (top, rest, below) in tops:
                for rule in pda.rules:
                    if rule.control != p or rule.symbol != top:
                        continue
                    (word, clipped) = clip(rule.push + rest)
                    succ = (rule.target, word, below or clipped)
                    if succ not in seen:
                        seen.add(succ)
                        fresh.append(succ)
        frontier = fresh
    return seen


def exact_reachable(pda, control, stack, max_stack, rounds):
    """Like bounded_reachable, but also reports whether the set is exact.

    The flag is True when the search reached a fixpoint without ever
    discarding a successor for being too tall.  In that case the returned
    set is the complete reachable set, so absence proves unreachability.
    """
    start = (control, tuple(stack))
    seen = {start}
    frontier = [start]
    complete = len(stack) <= max_stack
    for _ in range(rounds):
        fresh = []
        for (p, w) in frontier:
            for (_, succ) in pda_moves(pda, p, w):
                if len(succ[1]) > max_stack:
                    complete = False
                elif succ not in seen:
                    seen.add(succ)
                    fresh.append(succ)
        if not fresh:
            return (seen, complete)
        frontier = fresh
    return (seen, False)


def automaton_accepts(aut, control, word):
    """Path membership over the raw edge data, written from scratch.

    Reads ``word`` (original symbols) from the control's entry state to a
    final state, expanding composite edge labels and taking silent edges
    anywhere.  Used to double-check reachability claims without trusting
    the library's own query code.
    """
    entry = dict(aut.entries).get(control)
    if entry is None:
        return False
    expand = dict(aut.expansions)
    adj = {}
    for (src, label, dst) in aut.edges:
        adj.setdefault(src, []).append((label, dst))
    word = tuple(word)
    todo = [(entry, 0)]
    seen = {(entry, 0)}
    while todo:
        (state, pos) = todo.pop()
        if pos == len(word) and state in aut.finals:
            return True
        for (label, dst) in adj.get(state, ()):
            if label == "":
                step = (dst, pos)
            else:
                flat = expand.get(label, (label,))
                if word[pos : pos + len(flat)] != flat:
                    continue
                step = (dst, pos + len(flat))
            if step not in seen:
                seen.add(step)
                todo.append(step)
    return False


def naive_truncations(aut, k):
    """Depth-k truncations of the accepted configurations, by a forward walk.

    Walks (state, prefix) pairs from each control's entry, extending the
    prefix by every edge into a state from which a final or live state is
    reachable, and records a prefix when it reaches length k (cut there) or
    when a final is silently reachable from its state (a whole stack shorter
    than k).  Every prefix is walked separately, so this is the plain
    definition, with no sharing of suffixes.
    """
    expand = dict(aut.expansions)
    rev = {}
    for (src, label, dst) in aut.edges:
        rev.setdefault(dst, []).append((label, src))

    def backward(targets, silent_only):
        seen = set(targets)
        todo = list(seen)
        while todo:
            for (label, src) in rev.get(todo.pop(), ()):
                if (label == "" or not silent_only) and src not in seen:
                    seen.add(src)
                    todo.append(src)
        return seen

    coacc = backward(set(aut.finals) | {s for (s, _) in aut.live}, False)
    ends = backward(set(aut.finals), True)
    adj = {}
    for (src, label, dst) in aut.edges:
        if dst in coacc:
            word = () if label == "" else expand.get(label, (label,))
            adj.setdefault(src, []).append((dst, word))
    found = set()
    for (control, entry) in aut.entries:
        todo = [(entry, ())]
        seen = set(todo)
        while todo:
            (state, prefix) = todo.pop()
            if state in ends:
                found.add(TruncatedConfig(control, prefix))
            for (dst, word) in adj.get(state, ()):
                grown = prefix + word
                if len(grown) >= k:
                    found.add(TruncatedConfig(control, grown[:k]))
                elif (dst, grown) not in seen:
                    seen.add((dst, grown))
                    todo.append((dst, grown))
    return found


def closure_violations(pda, aut):
    """Rules the automaton is not closed under, checked from first principles.

    Soundness of non-membership rests on the automaton being an invariant:
    whenever a path from some control's entry reads a rule's popped symbol
    to a state t, the rewritten side must also read the pushed word from the
    target control's entry to the same t.  Every violation is returned, so
    an empty result plus acceptance of the start configuration proves the
    automaton covers everything reachable.  ``pda`` must be the normalized
    pda the automaton was saturated against.
    """
    adj = {}
    for (src, label, dst) in aut.edges:
        adj.setdefault(src, []).append((label, dst))

    def eps_closure(states):
        todo = list(states)
        out = set(states)
        while todo:
            s = todo.pop()
            for (label, dst) in adj.get(s, ()):
                if label == "" and dst not in out:
                    out.add(dst)
                    todo.append(dst)
        return out

    def read(states, word):
        states = eps_closure(states)
        for sym in word:
            states = eps_closure(
                {dst for s in states for (label, dst) in adj.get(s, ()) if label == sym}
            )
        return states

    entry = dict(aut.entries)
    out = []
    for rule in pda.rules:
        ends = read({entry[rule.control]}, (rule.symbol,))
        targets = read({entry[rule.target]}, rule.push)
        for t in sorted(ends - targets):
            out.append((rule, t))
    return out


def prefix_unreachable(abstract, control, stack, depth):
    """True when no abstract state covers (control, stack).

    An uncut abstract prefix covers exactly the stack it spells out, while
    a cut prefix covers every stack extending it, so the configuration is
    proven unreachable only when the whole chain of initial segments is
    absent from the abstraction.
    """
    word = tuple(stack)
    if len(word) <= depth and (control, word, False) in abstract:
        return False
    for cut in range(min(len(word), depth) + 1):
        if (control, word[:cut], True) in abstract:
            return False
    return True


# ---------------------------------------------------------------------------
# emptying derivations


def emptying_search(pda, control, symbol, horizon):
    """Shortest emptying derivations from (control, [symbol]), by BFS.

    Returns {end control: steps} for every derivation of length at most
    ``horizon`` that pops the single symbol and everything it turns into.
    Stacks needing more remaining steps than the budget allows are pruned,
    which keeps the search finite without losing any derivation within the
    horizon (a stack of n symbols takes at least n steps to empty).
    """
    start = (control, (symbol,))
    dist = {start: 0}
    found = {}
    frontier = [start]
    while frontier:
        fresh = []
        for state in frontier:
            d = dist[state] + 1
            if d > horizon:
                continue
            for (_, succ) in pda_moves(pda, state[0], state[1]):
                if succ in dist or d + len(succ[1]) > horizon:
                    continue
                dist[succ] = d
                if not succ[1]:
                    found[succ[0]] = d
                else:
                    fresh.append(succ)
        frontier = fresh
    return found


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


def naive_transformers(pda):
    """The emptying relation with shortest-derivation lengths, round-robin.

    Fixpoint over the rules: a rule p X -a-> q alpha contributes (p, X, r)
    whenever alpha can be emptied from q ending in r, at cost one plus the
    cost of emptying alpha.  Iteration stops when no cost improves.
    Returns (triples, shortest, bound) as ``TransformerTable`` holds them.
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
    return (frozenset(dist), tuple(sorted(dist.items())), bound)


def norm(pda, config, limit):
    """Fewest moves from ``config`` to a configuration without moves, by BFS.

    ``config`` is a (control, stack tuple) pair.  Returns None when no such
    configuration is within ``limit`` moves.  A move pops at most one
    symbol, so a stack needs at least as many moves as it has symbols above
    its first one that some control has no rule for; configurations that
    cannot finish within ``limit`` that way are pruned, which keeps the
    search small without losing any answer within the limit.
    """
    movable = {(r.control, r.symbol) for r in pda.rules}
    stuck = {x for x in pda.stack_alphabet for p in pda.controls if (p, x) not in movable}

    def floor(stack):
        for (i, x) in enumerate(stack):
            if x in stuck:
                return i
        return len(stack)

    if floor(config[1]) > limit:
        return None
    seen = {config}
    frontier = [config]
    for depth in range(limit + 1):
        fresh = []
        for state in frontier:
            moves = pda_moves(pda, state[0], state[1])
            if not moves:
                return depth
            for (_, succ) in moves:
                if succ not in seen and depth + 1 + floor(succ[1]) <= limit:
                    seen.add(succ)
                    fresh.append(succ)
        frontier = fresh
    return None


# ---------------------------------------------------------------------------
# seeded generators


def random_lts(rng, max_states=8, max_actions=3, density=0.25):
    """A random finite system with deterministic structure per seed."""
    n = rng.randint(1, max_states)
    states = ["s%d" % i for i in range(n)]
    actions = ["a", "b", "c"][: rng.randint(1, max_actions)]
    transitions = set()
    for s in states:
        for a in actions:
            for t in states:
                if rng.random() < density:
                    transitions.add((s, a, t))
    return FiniteLts(frozenset(states), frozenset(actions), frozenset(transitions))


def random_pda(rng, max_controls=3, max_symbols=3, max_rules=8):
    """A random pushdown system with deterministic structure per seed."""
    controls = ["p%d" % i for i in range(rng.randint(1, max_controls))]
    symbols = ["A", "B", "C"][: rng.randint(1, max_symbols)]
    actions = ["a", "b"]
    wanted = rng.randint(1, max_rules)
    rules = set()
    for _ in range(4 * wanted):
        if len(rules) >= wanted:
            break
        push = tuple(
            rng.choice(symbols) for _ in range(rng.choice((0, 0, 1, 1, 2, 2, 3)))
        )
        rules.add(
            Rule(
                rng.choice(controls),
                rng.choice(symbols),
                rng.choice(actions),
                rng.choice(controls),
                push,
            )
        )
    return Pda(
        controls=frozenset(controls),
        stack_alphabet=frozenset(symbols),
        actions=frozenset(actions),
        rules=tuple(sorted(rules)),
    )


def dense_pda(rng, controls, rules):
    """A pda with exactly ``controls`` controls and ``rules`` distinct rules.

    Three stack symbols and two actions, each rule drawn uniformly like
    ``random_pda`` draws them; at 8-10 controls and 60-80 rules many
    controls share popped symbols and targets.
    """
    names = ["p%d" % i for i in range(controls)]
    symbols = ["A", "B", "C"]
    chosen = set()
    while len(chosen) < rules:
        push = tuple(
            rng.choice(symbols) for _ in range(rng.choice((0, 0, 1, 1, 2, 2, 3)))
        )
        chosen.add(
            Rule(rng.choice(names), rng.choice(symbols), rng.choice("ab"),
                 rng.choice(names), push)
        )
    return Pda(
        controls=frozenset(names),
        stack_alphabet=frozenset(symbols),
        actions=frozenset("ab"),
        rules=tuple(sorted(chosen)),
    )


def random_stack(rng, symbols, max_len=4, min_len=0):
    return tuple(rng.choice(symbols) for _ in range(rng.randint(min_len, max_len)))
