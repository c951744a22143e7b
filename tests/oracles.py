"""Independent brute-force references used by the tests.

Everything here recomputes quantities from definitions (dense matrices,
exhaustive enumeration), deliberately avoiding the package's sparse and
message-passing code paths, except ``decode_rows``: the tests' call of the
package's decoder, one codeword per row, which ``reference_concat_decode``
also decodes its passes with.
"""

from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np

from concat_ira.gf2 import SparseBinaryMatrix
from concat_ira.interleave import (
    BlockPermutation,
    InterleaverInfeasible,
    SensitiveSets,
    count_bad_mappings,
)
from concat_ira.ira import (
    AceParams,
    ConstructionError,
    DegreeSpec,
    IraCode,
    build_h2,
    default_degree_spec,
    validate_code,
)
from concat_ira.concat import ConcatCode, ConcatDecodeResult, Schedule
from concat_ira.spa import decode_indexed
from concat_ira.stopping import select_sensitive


class TannerGraph(NamedTuple):
    """Adjacency lists of a Tanner graph: variables (columns) vs checks (rows)."""

    var_to_checks: Sequence[Sequence[int]]
    check_to_vars: Sequence[Sequence[int]]

    @property
    def n_vars(self) -> int:
        return len(self.var_to_checks)


def tanner_graph(h: SparseBinaryMatrix) -> TannerGraph:
    return TannerGraph(h.col_support, h.row_support)


def to_dense(matrix: SparseBinaryMatrix) -> np.ndarray:
    """The matrix as a dense uint8 array of zeros and ones."""
    dense = np.zeros((matrix.n_rows, matrix.n_cols), dtype=np.uint8)
    for c, sup in enumerate(matrix.col_support):
        dense[list(sup), c] = 1
    return dense


def invert_permutation(perm: BlockPermutation) -> BlockPermutation:
    """The permutation that undoes ``perm``, with its other fields."""
    inv = np.empty_like(perm.forward)
    inv[perm.forward] = np.arange(perm.K * perm.N)
    return replace(perm, forward=inv)


def all_bit_patterns(n: int) -> np.ndarray:
    """(2^n, n) array of every bit vector, LSB-first."""
    return ((np.arange(2**n)[:, None] >> np.arange(n)) & 1).astype(np.uint8)


def dense_codewords(h_dense: np.ndarray) -> np.ndarray:
    """All vectors with zero syndrome under a dense parity-check matrix."""
    patterns = all_bit_patterns(h_dense.shape[1])
    ok = ((patterns @ h_dense.T) % 2 == 0).all(axis=1)
    return patterns[ok]


def _logsumexp(a: np.ndarray) -> float:
    m = a.max()
    return float(m + np.log(np.exp(a - m).sum()))


def exact_bit_marginals(codewords: np.ndarray, llr: np.ndarray) -> np.ndarray:
    """Exact per-bit posterior LLRs by summing over all codewords.

    The prior over codewords is uniform; observation weight of a codeword x
    is prod_v P(x_v) with log P(x_v=1)/P(x_v=0) = -llr_v.
    """
    log_w = -(codewords @ llr)
    out = np.empty(codewords.shape[1])
    for v in range(codewords.shape[1]):
        zero = codewords[:, v] == 0
        out[v] = _logsumexp(log_w[zero]) - _logsumexp(log_w[~zero])
    return out


def dense_syndrome(h_dense: np.ndarray, x: np.ndarray) -> np.ndarray:
    return (h_dense @ np.asarray(x, dtype=np.int64)) % 2


def brute_force_cycles_through(
    var_supports: list, check_supports: list, v0: int, max_length: int
) -> list[frozenset]:
    """Every simple cycle through v0 up to max_length edges, found by testing
    all edge subsets of the graph; only viable for very small graphs."""
    edges = [
        (c, v) for c, sup in enumerate(check_supports) for v in sup
    ]
    found = []
    for mask in range(1, 2 ** len(edges)):
        subset = [edges[i] for i in range(len(edges)) if (mask >> i) & 1]
        if len(subset) > max_length or len(subset) < 4 or len(subset) % 2:
            continue
        vars_deg: dict = {}
        checks_deg: dict = {}
        for c, v in subset:
            vars_deg[v] = vars_deg.get(v, 0) + 1
            checks_deg[c] = checks_deg.get(c, 0) + 1
        if v0 not in vars_deg:
            continue
        if any(d != 2 for d in vars_deg.values()):
            continue
        if any(d != 2 for d in checks_deg.values()):
            continue
        # connectivity: walk the subset from v0
        adj: dict = {}
        for c, v in subset:
            adj.setdefault(("v", v), []).append(("c", c))
            adj.setdefault(("c", c), []).append(("v", v))
        seen = {("v", v0)}
        stack = [("v", v0)]
        while stack:
            node = stack.pop()
            for nxt in adj[node]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        if len(seen) == len(vars_deg) + len(checks_deg):
            found.append(frozenset(subset))
    return found


def minimal_stopping_sets_containing(h_dense: np.ndarray, v0: int) -> list[set]:
    """All minimum-cardinality stopping sets containing v0, by subset search."""
    n = h_dense.shape[1]
    best: list[set] = []
    best_size = None
    for mask in range(1, 2**n):
        if not (mask >> v0) & 1:
            continue
        members = [v for v in range(n) if (mask >> v) & 1]
        if best_size is not None and len(members) > best_size:
            continue
        counts = h_dense[:, members].sum(axis=1)
        if np.any(counts == 1):
            continue
        if best_size is None or len(members) < best_size:
            best, best_size = [set(members)], len(members)
        elif len(members) == best_size:
            best.append(set(members))
    return best


# --- the padded-plane SPA kernel that spa.decode_indexed replaced ------------
#
# Kept verbatim (constants copied, edge tables rebuilt from the public row
# supports) so the fast kernel can be pinned to it bit for bit.

_REF_LLR_CLAMP = 50.0
_REF_ATANH_GUARD = 1.0 - 1e-12


class BatchDecodeResult(NamedTuple):
    """Per-row results of decoding a batch of independent LLR vectors."""

    hard_bits: np.ndarray  # (B, N) uint8
    posterior: np.ndarray  # (B, N)
    extrinsic: np.ndarray  # (B, N)
    iterations_used: np.ndarray  # (B,) int64
    valid: np.ndarray  # (B,) bool


def decode_rows(matrix, channel, prior=None, max_iter=100, early_stop=True) -> BatchDecodeResult:
    """``spa.decode_indexed`` without a table: codeword i at row i of the
    channel and prior, decoded into new arrays, in the form of
    ``reference_decode_batch``."""
    channel = np.atleast_2d(np.ascontiguousarray(channel, dtype=np.float64))
    if prior is not None:
        prior = np.atleast_2d(np.ascontiguousarray(prior, dtype=np.float64))
    extrinsic, posterior = np.empty(channel.shape), np.empty(channel.shape)
    res = decode_indexed(matrix, None, None, channel, prior, extrinsic, posterior, max_iter,
                         early_stop)
    hard = (posterior < 0.0).view(np.uint8)
    return BatchDecodeResult(hard, posterior, extrinsic, res.iterations_used, res.valid)


def _padded_graph(matrix):
    edge_var = np.asarray([c for r in matrix.row_support for c in r], dtype=np.intp)
    check_deg = np.array([len(r) for r in matrix.row_support])
    var_deg = np.array([len(c) for c in matrix.col_support])
    check_of = np.repeat(np.arange(matrix.n_rows), check_deg).astype(np.intp)
    check_slot = np.concatenate([np.arange(d) for d in check_deg]) if len(edge_var) else np.zeros(0, np.intp)
    next_slot = np.zeros(matrix.n_cols, dtype=np.intp)
    var_slot = np.zeros(len(edge_var), dtype=np.intp)
    for e, v in enumerate(edge_var):
        var_slot[e] = next_slot[v]
        next_slot[v] += 1
    return (
        matrix.n_rows,
        matrix.n_cols,
        edge_var,
        check_of,
        check_slot.astype(np.intp),
        var_slot,
        int(check_deg.max(initial=0)),
        int(var_deg.max(initial=0)),
    )


def reference_decode_batch(matrix, channel, prior=None, max_iter=100, early_stop=True):
    """Flooding SPA over dense (B, checks, max_deg) and (B, vars, max_deg)
    planes, scattered three times per iteration."""
    n_checks, n_vars, edge_var, check_of, check_slot, var_slot, max_check_deg, max_var_deg = (
        _padded_graph(getattr(matrix, "H", matrix))
    )
    channel = np.atleast_2d(np.asarray(channel, dtype=np.float64))
    if prior is None:
        prior = np.zeros_like(channel)
    else:
        prior = np.atleast_2d(np.asarray(prior, dtype=np.float64))

    batch = channel.shape[0]
    lam = channel + prior
    msg_vc = lam[:, edge_var].copy()

    posterior = lam.copy()
    extrinsic = np.zeros_like(lam)
    hard = (posterior < 0).astype(np.uint8)
    iterations = np.zeros(batch, dtype=np.int64)
    valid = np.zeros(batch, dtype=bool)

    active = np.arange(batch)
    for it in range(1, max_iter + 1):
        m = np.clip(msg_vc[active], -_REF_LLR_CLAMP, _REF_LLR_CLAMP)
        t = np.ones((len(active), n_checks, max_check_deg))
        t[:, check_of, check_slot] = np.tanh(0.5 * m)
        cp = np.cumprod(t, axis=2)
        prefix = np.concatenate([np.ones_like(t[:, :, :1]), cp[:, :, :-1]], axis=2)
        rcp = np.cumprod(t[:, :, ::-1], axis=2)[:, :, ::-1]
        suffix = np.concatenate([rcp[:, :, 1:], np.ones_like(t[:, :, :1])], axis=2)
        prod_other = (prefix * suffix)[:, check_of, check_slot]
        msg_cv = 2.0 * np.arctanh(np.clip(prod_other, -_REF_ATANH_GUARD, _REF_ATANH_GUARD))

        planes = np.zeros((len(active), n_vars, max_var_deg))
        planes[:, edge_var, var_slot] = msg_cv
        ext = planes.sum(axis=2)
        post = lam[active] + ext
        msg_vc[active] = post[:, edge_var] - msg_cv

        bits = (post < 0).astype(np.uint8)
        sat = np.zeros((len(active), n_checks, max_check_deg), dtype=np.uint8)
        sat[:, check_of, check_slot] = bits[:, edge_var]
        zero_syndrome = ~((sat.sum(axis=2) & 1).any(axis=1))

        posterior[active] = post
        extrinsic[active] = ext
        hard[active] = bits
        iterations[active] = it
        if early_stop:
            valid[active[zero_syndrome]] = True
            active = active[~zero_syndrome]
            if len(active) == 0:
                break
        else:
            valid[active] = zero_syndrome

    return BatchDecodeResult(hard, posterior, extrinsic, iterations, valid)


def reference_encode_batch(code, sources) -> np.ndarray:
    """The NumPy encoder that ``_trial_kernel.c``'s replaced, batch-last:
    each parity term is the XOR of its check's source bits, gathered through
    a (w, M) table of each check's systematic positions padded with the
    index K of a zero row appended to the bits, and the parities are the
    running XOR of the terms."""
    rows = [[j for j in row if j < code.K] for row in code.H.row_support]
    index = np.full((max(map(len, rows)), code.M), code.K, dtype=np.intp)
    for check, row in enumerate(rows):
        index[: len(row), check] = row
    sources = np.asarray(sources)
    bits = np.zeros((code.K + 1, sources.shape[0]), dtype=np.uint8)
    bits[: code.K] = sources.T
    terms = np.bitwise_xor.reduce(bits[index], axis=0)
    out = np.empty((sources.shape[0], code.N), dtype=np.uint8)
    out[:, : code.K] = sources
    out[:, code.K :] = np.bitwise_xor.accumulate(terms, axis=0).T
    return out


def dense_encode_batch(code, sources) -> np.ndarray:
    """The dense encoder: parity terms as an int64 product with H1, parities
    as their running sum mod 2."""
    h1_dense = np.zeros((code.M, code.K), dtype=np.int64)
    for j in range(code.K):
        for r in code.H.col_support[j]:
            h1_dense[r, j] = 1
    sources = np.asarray(sources)
    terms = (sources.astype(np.int64) @ h1_dense.T) & 1
    parity = np.cumsum(terms, axis=1) & 1
    return np.concatenate([sources.astype(np.uint8), parity.astype(np.uint8)], axis=1)


# --- scalar and exhaustive references the package's fast paths replace -------


def check_update(incoming) -> np.ndarray:
    """Outgoing message per edge of one check: 2*atanh of the product of the
    other edges' tanh(L/2) terms, with clamp guards."""
    inc = np.asarray(incoming, dtype=np.float64)
    if inc.ndim != 1 or inc.size < 1:
        raise ValueError("check_update needs a flat list of at least one message")
    t = np.tanh(0.5 * np.clip(inc, -_REF_LLR_CLAMP, _REF_LLR_CLAMP))
    prefix = np.concatenate([[1.0], np.cumprod(t)[:-1]])
    suffix = np.concatenate([np.cumprod(t[::-1])[-2::-1], [1.0]])
    return 2.0 * np.arctanh(np.clip(prefix * suffix, -_REF_ATANH_GUARD, _REF_ATANH_GUARD))


def variable_update(channel: float, prior: float, incoming_checks) -> tuple[np.ndarray, float]:
    """Messages to each check (total minus that check's input) and the posterior."""
    inc = np.asarray(incoming_checks, dtype=np.float64)
    total = float(channel) + float(prior) + inc.sum()
    return total - inc, total


def enumerate_short_cycles(graph, through_variable: int, max_length: int) -> list[tuple[int, ...]]:
    """All simple cycles of length <= max_length through one variable node.

    Cycle length is counted in edges of the bipartite graph, so a 4-cycle is
    two variables sharing two checks.  Each cycle is returned once as the
    tuple of its variable nodes starting at ``through_variable``; the search
    is exhaustive over simple cycles (distinct variables and checks, hence
    no repeated edges) up to the bound.
    """
    if max_length < 4 or max_length % 2 != 0:
        raise ValueError("max_length must be even and >= 4")
    v0 = int(through_variable)
    if not 0 <= v0 < graph.n_vars:
        raise ValueError(f"variable index {v0} out of range")

    v2c = graph.var_to_checks
    c2v = graph.check_to_vars
    found: dict[frozenset, tuple[int, ...]] = {}

    def record(var_path: tuple[int, ...], check_path: tuple[int, ...]) -> None:
        edges = set()
        k = len(var_path)
        for i, c in enumerate(check_path):
            edges.add((c, var_path[i]))
            edges.add((c, var_path[(i + 1) % k]))
        found.setdefault(frozenset(edges), var_path)

    def walk(
        v: int,
        var_path: tuple[int, ...],
        check_path: tuple[int, ...],
        used_checks: frozenset,
        used_vars: frozenset,
    ) -> None:
        closed_len = 2 * (len(check_path) + 1)
        for c in v2c[v]:
            if c in used_checks:
                continue
            for u in c2v[c]:
                if u == v:
                    continue
                if u == v0:
                    if closed_len >= 4:
                        record(var_path, check_path + (c,))
                elif u not in used_vars and closed_len + 2 <= max_length:
                    walk(
                        u,
                        var_path + (u,),
                        check_path + (c,),
                        used_checks | {c},
                        used_vars | {u},
                    )

    walk(v0, (v0,), (), frozenset(), frozenset((v0,)))
    return list(found.values())


@dataclass(frozen=True)
class AceResult:
    passed: bool
    min_ace: int | None  # None when no cycle of bounded length exists


def ace_check(graph, v: int, d_ace: int, eta: int) -> AceResult:
    """Minimum over cycles of length <= 2*d_ace through v of sum(deg - 2).

    Degree-2 variables contribute nothing, so cycles confined to weight-2
    columns score 0.  Passes when no such cycle exists or the minimum is at
    least eta.
    """
    cycles = enumerate_short_cycles(graph, v, 2 * d_ace)
    if not cycles:
        return AceResult(True, None)
    v2c = graph.var_to_checks
    min_ace = min(sum(len(v2c[u]) - 2 for u in cyc) for cyc in cycles)
    return AceResult(min_ace >= eta, min_ace)


def ace_audit(code) -> bool:
    """Re-run the ACE acceptance test on every variable of the finished code."""
    return all(
        ace_check(tanner_graph(code.H), v, code.ace.d_ace, code.ace.eta).passed
        for v in range(code.N)
    )


def has_codeword_of_weight_le4(matrix) -> bool:
    """Exact test for codewords of Hamming weight 2, 3, or 4.

    A weight-w codeword is w columns whose supports XOR to nothing, so it is
    enough to hash single supports and all pairwise support sums: weight 2 is
    a duplicated support, weight 3 a pair sum equal to a third support, and
    weight 4 two disjoint pairs with equal sums.  (Weight 1 would be an empty
    column.)  Quadratic in columns, exact, and fast at these sizes.
    """
    supports = [frozenset(c) for c in matrix.col_support]
    if any(not s for s in supports):
        return True
    if len(set(supports)) != len(supports):
        return True
    first_pair: dict[frozenset, tuple[int, int]] = {}
    by_support = {s: v for v, s in enumerate(supports)}
    for a in range(len(supports)):
        for b in range(a + 1, len(supports)):
            s = supports[a] ^ supports[b]
            third = by_support.get(s)
            if third is not None and third not in (a, b):
                return True
            other = first_pair.get(s)
            if other is not None and not set(other) & {a, b}:
                return True
            if other is None:
                first_pair[s] = (a, b)
    return False


def reference_design(
    perm0: BlockPermutation,
    sets: SensitiveSets,
    rng: np.random.Generator,
) -> BlockPermutation:
    """Reference for one level of ``interleave.escalate_design``, its
    ``_plan_repair`` and ``_apply_repair``: the same repair, rescanning the
    whole block for the legal partners of every offender.

    Repair a permutation until it has zero bad mappings.

    Offenders are fixed in ascending flat order.  Each swap partner is drawn
    uniformly among positions whose own source column is not row-code
    sensitive and whose current image row is not column-code sensitive, so a
    swap removes exactly one offender and can never mint a new one; the
    repair count is therefore monotone.  Raises InterleaverInfeasible when
    the counting bound fails up front, when no legal partner remains, or
    when bad mappings remain after repair.
    """
    k, n = perm0.K, perm0.N
    sets.validate_for(k, n)

    demand = k * len(sets.row_code_nodes)
    supply = (k - len(sets.col_code_nodes)) * n
    if demand > supply:
        raise InterleaverInfeasible(
            "counting_bound",
            f"{demand} sensitive-column positions cannot all avoid "
            f"{len(sets.col_code_nodes)} sensitive rows ({supply} safe slots)",
        )

    fwd = np.array(perm0.forward)
    col_sensitive = np.zeros(n, dtype=bool)
    col_sensitive[list(sets.row_code_nodes)] = True
    row_sensitive = np.zeros(k, dtype=bool)
    row_sensitive[list(sets.col_code_nodes)] = True
    src_col_safe = ~col_sensitive[np.arange(k * n) % n]
    image_safe = ~row_sensitive[fwd // n]  # maintained across swaps

    offenders = count_bad_mappings(perm0, sets).positions
    swaps = 0
    for r, c in offenders:
        p1 = r * n + c
        legal = np.flatnonzero(src_col_safe & image_safe)
        if len(legal) == 0:
            raise InterleaverInfeasible(
                "no_legal_partner",
                "every safe image is held by a sensitive-column position",
            )
        p2 = int(legal[rng.integers(len(legal))])
        fwd[p1], fwd[p2] = fwd[p2], fwd[p1]
        image_safe[p1], image_safe[p2] = image_safe[p2], image_safe[p1]
        swaps += 1

    result = BlockPermutation(
        K=k, N=n, forward=fwd, seed=perm0.seed,
        design_t=perm0.design_t, repairs=swaps, sets=sets,
    )
    remaining = count_bad_mappings(result, sets).count
    if remaining:
        raise InterleaverInfeasible(
            "attempts_exhausted", f"{remaining} bad mappings remain after repair"
        )
    return result


def reference_escalate(
    hist_row: np.ndarray,
    hist_col: np.ndarray,
    perm0: BlockPermutation,
    rng: np.random.Generator,
) -> BlockPermutation:
    """Reference for ``interleave.escalate_design``: a full
    ``reference_design`` repair at every level, keeping the last that
    succeeds, ``perm0`` when level 1 already fails."""
    k, n = perm0.K, perm0.N
    best = perm0
    for t in range(1, max(n, k) + 1):
        sets = SensitiveSets(
            row_code_nodes=frozenset(select_sensitive(hist_row, t)),
            col_code_nodes=frozenset(select_sensitive(hist_col[:k], t)),
        )
        try:
            best = replace(reference_design(perm0, sets, rng), design_t=t)
        except InterleaverInfeasible:
            break
    return best


def is_stopping_set(h: SparseBinaryMatrix, members) -> bool:
    """True iff every check adjacent to the nonempty set has >= 2 edges into it."""
    members = set(int(v) for v in members)
    if not members:
        raise ValueError("a stopping set must be nonempty")
    if any(v < 0 or v >= h.n_cols for v in members):
        raise ValueError("variable index out of range")
    touched = np.zeros(h.n_rows, dtype=np.int64)
    for v in members:
        for c in h.col_support[v]:
            touched[c] += 1
    return not np.any(touched == 1)


def reference_detect_from(h: SparseBinaryMatrix, start: int) -> frozenset[int]:
    """Reference for ``stopping._detect``: the same greedy expansion with
    the check counts in a NumPy array, rescanned for deficient checks at
    every step.

    While some check sees the set exactly once, take the lowest-index such
    deficient check and add its outside neighbor that creates the fewest
    newly deficient checks (ties to the lowest variable index).  Expansion
    halts when no check is deficient, or when a deficient check has no
    neighbor left to add.
    """
    if not 0 <= start < h.n_cols:
        raise ValueError(f"start variable {start} out of range")

    v2c = h.col_support
    c2v = h.row_support
    counts = np.zeros(h.n_rows, dtype=np.int64)
    members = {start}
    for c in v2c[start]:
        counts[c] += 1

    while True:
        deficient = np.flatnonzero(counts == 1)
        if len(deficient) == 0:
            break
        target = int(deficient[0])
        candidates = [u for u in c2v[target] if u not in members]
        if not candidates:
            break
        best = min(
            candidates,
            key=lambda u: (sum(1 for c in v2c[u] if counts[c] == 0), u),
        )
        members.add(best)
        for c in v2c[best]:
            counts[c] += 1

    return frozenset(members)


def reference_ace_passes(graph: TannerGraph, v: int, d_ace: int, eta: int) -> bool:
    """The ACE test of ``reference_build_h1``, for any (d_ace, eta): the
    pruned search that descends to the last depth before testing for a
    closing check.  ``ira.build_h1`` builds only at the default AceParams,
    where this test is exactly its 4-cycle test ``ira._closes_4_cycle``.

    A cycle through v carries at least deg(v)-2, so the test passes outright
    once that base reaches eta.  Otherwise a violating cycle must keep its
    running degree-sum below eta at every variable along the way (the terms
    are nonnegative), which lets the search prune aggressively and stop at
    the first violation instead of enumerating everything.
    """
    v2c = graph.var_to_checks
    c2v = graph.check_to_vars
    base = len(v2c[v]) - 2
    if base >= eta:
        return True

    def ok(u: int, partial: int, used_checks: frozenset, used_vars: frozenset) -> bool:
        closed_len = 2 * (len(used_checks) + 1)
        for c in v2c[u]:
            if c in used_checks:
                continue
            for w in c2v[c]:
                if w == u:
                    continue
                if w == v:
                    if closed_len >= 4:
                        return False  # cycle closed with total ACE == partial < eta
                elif w not in used_vars and closed_len + 2 <= 2 * d_ace:
                    p = partial + len(v2c[w]) - 2
                    if p < eta and not ok(w, p, used_checks | {c}, used_vars | {w}):
                        return False
        return True

    return ok(v, base, frozenset(), frozenset((v,)))


class _LowWeightScreen:
    """Reference for ``ira._LowWeightScreen``: supports and pair sums in two
    sets, each candidate tested against both in a Python loop.

    Incremental form, for construction, of the batch weight <= 4 test
    ``has_codeword_of_weight_le4``.

    Tracks placed column supports and their pairwise sums; a candidate support
    is rejected when accepting it would create a weight <= 4 codeword.  Pair
    sums that collide between overlapping pairs imply a duplicate support, so
    keeping one flat set of sums is enough.  A support is a bitmask of its
    rows (bit r set for row r), so a support sum is one integer XOR.
    """

    def __init__(self, initial: Sequence[int]):
        self.supports: set[int] = set()
        self.placed: list[int] = []
        self.pair_sums: set[int] = set()
        for s in initial:
            self.register(s)

    def clashes(self, cand: int) -> bool:
        if cand in self.supports or cand in self.pair_sums:
            return True  # weight 2 or 3
        for s in self.placed:
            d = cand ^ s
            if d in self.supports or d in self.pair_sums:
                return True  # weight 3 or 4
        return False

    def register(self, cand: int) -> None:
        for s in self.placed:
            self.pair_sums.add(cand ^ s)
        self.placed.append(cand)
        self.supports.add(cand)


def _row_mask(rows) -> int:
    mask = 0
    for r in rows:
        mask |= 1 << int(r)
    return mask


def validate_edge_budget(spec: DegreeSpec, k: int, m: int) -> None:
    """Degrees must account for exactly the check edges H2 leaves over."""
    if len(spec.h1_column_degrees) != k:
        raise ValueError(
            f"degree spec has {len(spec.h1_column_degrees)} entries, expected {k}"
        )
    budget = m * spec.check_degree_target - (2 * m - 1)
    total = sum(spec.h1_column_degrees)
    if total != budget:
        raise ValueError(
            f"H1 degrees sum to {total} but the row budget requires {budget}"
        )
    if max(spec.h1_column_degrees, default=0) > m:
        raise ValueError(f"a column degree exceeds the {m} available rows")


def _h1_row_budgets(m: int, check_degree: int) -> list[int]:
    # H2 gives row 0 weight 1 and every later row weight 2.
    budgets = [check_degree - 2] * m
    budgets[0] = check_degree - 1
    if any(b < 0 for b in budgets):
        raise ConstructionError(f"check degree {check_degree} below the H2 row weight")
    return budgets


def reference_build_h1(
    k: int,
    m: int,
    spec: DegreeSpec,
    ace: AceParams,
    seed: int,
    max_restarts: int = 256,
    screen_low_weight: bool = True,
) -> SparseBinaryMatrix:
    """Reference for ``ira.build_h1`` at any settings: at the default
    AceParams, with the screen on and 256 restarts, the same construction,
    resampling a column's row set even after every set has failed, screening
    before ACE and drawing rows with ``Generator.choice``.

    Place the irregular systematic columns one at a time, highest degree
    first, resampling any placement whose short-cycle ACE falls below eta or
    (by default) whose support would complete a codeword of weight <= 4.

    Rows are drawn without replacement with probability proportional to
    remaining budget, which keeps consumption even so the final columns are
    not forced into conflicting rows; every row of [H1|H2] ends at exactly
    the target check degree.  A column is stuck after max_resample draws;
    a stuck column restarts the whole construction with the next derived
    seed.  Running out of restarts raises with the constraint that bound.

    The low-weight screen guarantees minimum distance >= 5, which matters
    for floor studies: without it, undetected few-bit errors drown out the
    non-convergence events that stopping-set analysis targets.  Dense tiny
    codes cannot satisfy it; pass screen_low_weight=False there.
    """
    validate_edge_budget(spec, k, m)
    order = sorted(range(k), key=lambda j: (-spec.h1_column_degrees[j], j))
    h2_cols = [[j, j + 1] for j in range(m - 1)] + [[m - 1]]

    last_blocker = "ACE resample budget exhausted"
    for restart in range(max_restarts):
        rng = np.random.default_rng(seed + restart)
        budgets = np.array(_h1_row_budgets(m, spec.check_degree_target))
        h1_cols: list[list[int]] = [[] for _ in range(k)]
        rows_work: list[list[int]] = [[] for _ in range(m)]
        for r, sup in enumerate(h2_cols):
            for c in sup:
                rows_work[c].append(k + r)
        graph = TannerGraph(
            var_to_checks=h1_cols + h2_cols, check_to_vars=rows_work
        )
        screen = (
            _LowWeightScreen([_row_mask(s) for s in h2_cols])
            if screen_low_weight
            else None
        )

        # the graph view aliases the per-column lists, so mutate them in place
        def attempt(j: int, rows) -> bool:
            cand = _row_mask(rows)
            if screen is not None and screen.clashes(cand):
                return False
            h1_cols[j][:] = sorted(int(r) for r in rows)
            for r in h1_cols[j]:
                rows_work[r].append(j)
                budgets[r] -= 1
            if reference_ace_passes(graph, j, ace.d_ace, ace.eta):
                if screen is not None:
                    screen.register(cand)
                return True
            for r in h1_cols[j]:
                rows_work[r].remove(j)
                budgets[r] += 1
            h1_cols[j].clear()
            return False

        failed = False
        for j in order:
            degree = spec.h1_column_degrees[j]
            accepted = False
            for _ in range(ace.max_resample):
                avail = np.flatnonzero(budgets > 0)
                if len(avail) < degree:
                    break
                weights = budgets[avail].astype(np.float64)
                rows = rng.choice(
                    avail, size=degree, replace=False, p=weights / weights.sum()
                )
                if attempt(j, rows):
                    accepted = True
                    break
            if not accepted:
                avail = np.flatnonzero(budgets > 0)
                if len(avail) < degree:
                    last_blocker = (
                        f"only {len(avail)} rows with remaining budget for a "
                        f"degree-{degree} column"
                    )
                else:
                    last_blocker = "ACE resample budget exhausted"
                failed = True
                break
        if not failed:
            assert all(b == 0 for b in budgets)
            return SparseBinaryMatrix(m, k, h1_cols)

    screen_note = ", low-weight screen on" if screen_low_weight else ""
    raise ConstructionError(
        f"no placement satisfied ACE(d_ace={ace.d_ace}, eta={ace.eta}){screen_note} "
        f"within {max_restarts} restarts: {last_blocker}"
    )


def reference_build_code(
    k: int,
    n: int,
    seed: int,
    check_degree: int = 10,
    ace: AceParams = AceParams(),
    screen_low_weight: bool = True,
) -> IraCode:
    """``ira.build_code`` at any check degree, ACE and screen setting: the
    toy codes of the tests, which the product's settings cannot build."""
    m = n - k
    spec = default_degree_spec(k, m, check_degree)
    h1 = reference_build_h1(k, m, spec, ace, seed, screen_low_weight=screen_low_weight)
    cols = list(h1.col_support) + list(build_h2(m).col_support)
    code = IraCode(H=SparseBinaryMatrix(m, n, cols), ace=ace, seed=seed)
    validate_code(code)
    return code


def _peel(checks: Sequence[Sequence[int]], erased: np.ndarray) -> np.ndarray:
    left = np.array(erased, dtype=bool)
    var_checks: dict[int, list[int]] = {}
    for c, members in enumerate(checks):
        for v in members:
            var_checks.setdefault(v, []).append(c)
    unknown = [sum(bool(left[v]) for v in members) for members in checks]
    queue = [c for c, u in enumerate(unknown) if u == 1]
    while queue:
        c = queue.pop()
        if unknown[c] != 1:
            continue  # resolved through another check since it was queued
        v = next(v for v in checks[c] if left[v])
        left[v] = False
        for d in var_checks[v]:
            unknown[d] -= 1
            if unknown[d] == 1:
                queue.append(d)
    return left


def peel(h: SparseBinaryMatrix, erased) -> np.ndarray:
    """Erasure decoding by peeling: while a check has exactly one erased
    variable, that variable is resolved.  Returns the bool mask of what stays
    erased, the largest stopping set inside ``erased`` (Di, Proietti, Telatar,
    Richardson and Urbanke, IEEE Trans. IT 2002), which belief propagation
    on the erasure channel leaves unresolved, whatever the order of peeling."""
    return _peel(h.row_support, erased)


def concat_peel(cc: ConcatCode, erased) -> np.ndarray:
    """``peel`` over the joint graph of a concatenated block: ``erased`` and
    the result are (N, N) bool, as ``concat_encode`` lays the block out.
    Column c is an inner codeword, and row r of the outer code has its
    variable v at flat position ``pi.forward[r * N + v]`` of the first K
    rows."""
    n = cc.N
    checks = [[v * n + c for v in row] for c in range(n) for row in cc.inner.H.row_support]
    forward = cc.pi.forward.reshape(cc.K, n)
    checks += [[int(forward[r, v]) for v in row]
               for r in range(cc.K) for row in cc.outer.H.row_support]
    return _peel(checks, np.asarray(erased, dtype=bool).ravel()).reshape(n, n)


def reference_concat_decode(cc: ConcatCode, channel_llrs, schedule: Schedule) -> ConcatDecodeResult:
    """Reference for ``concat.concat_decode``: the NumPy glue it replaced,
    which moves whole (rows, N) channel, prior and extrinsic arrays through
    ``BlockPermutation.apply`` and decodes each pass with ``decode_rows``."""
    lch = np.asarray(channel_llrs, dtype=np.float64)
    if lch.shape != (cc.N, cc.N):
        raise ValueError(f"expected ({cc.N}, {cc.N}) channel LLR array")
    k, n = cc.K, cc.N

    pi_inv = invert_permutation(cc.pi)
    lch_rows = pi_inv.apply(lch[:k, :])  # channel observations seen by the row code
    row_ext = np.zeros((k, n))              # row-decoder extrinsic, row-code alignment
    col_ext_mixed = np.zeros((k, n))        # column-decoder extrinsic, column-code alignment
    row_post = np.zeros((k, n))
    col_valid = np.zeros(n, dtype=bool)
    row_valid = np.zeros(k, dtype=bool)
    calls = 0
    iters = 0
    history: list[tuple[int, int]] = []

    for _ in range(schedule.outer_iters):
        # column pass: channel enters here; prior is the permuted row extrinsic
        cols = np.flatnonzero(~col_valid) if schedule.freeze_converged else np.arange(n)
        if len(cols):
            prior_mixed = cc.pi.apply(row_ext)
            prior = np.zeros((len(cols), n))
            prior[:, :k] = prior_mixed[:, cols].T
            res = decode_rows(cc.inner, lch[:, cols].T, prior, schedule.inner_iters)
            col_ext_mixed[:, cols] = res.extrinsic[:, :k].T
            col_valid[cols] = res.valid
            calls += len(cols)
            iters += int(res.iterations_used.sum())

        # row pass: de-interleaved channel plus the column extrinsic as prior
        rows = np.flatnonzero(~row_valid) if schedule.freeze_converged else np.arange(k)
        if len(rows):
            prior = pi_inv.apply(col_ext_mixed)[rows]
            res = decode_rows(cc.outer, lch_rows[rows], prior, schedule.inner_iters)
            row_ext[rows] = res.extrinsic
            row_post[rows] = res.posterior
            row_valid[rows] = res.valid
            calls += len(rows)
            iters += int(res.iterations_used.sum())

        history.append((int(col_valid.sum()), int(row_valid.sum())))
        if col_valid.all() and row_valid.all():
            break

    return ConcatDecodeResult(
        source_bits=(row_post[:, :k] < 0).astype(np.uint8),
        column_valid=col_valid,
        row_valid=row_valid,
        pass_validity=tuple(history),
        component_decode_calls=calls,
        component_iterations=iters,
    )
