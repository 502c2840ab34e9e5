"""Reusable property-based checks, parameterized by example count.

The acceptance suite runs each of these at 1000 examples; keeping them here
as plain functions lets other tests reuse the same properties at a smaller
budget without duplicating the strategies.
"""

from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import ceil, floor, gcd, lcm

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from torsod import (
    GenerationCertificate,
    canned_example,
    extend_block_label,
    generation_certificate,
    make_datum,
    sigma,
    sigma_alpha,
    verify_certificate,
)
from torsod.errors import DepthExceeded
from torsod.extraction import datum_context
from torsod.lattice import (
    cokernel,
    determinant,
    identity_matrix,
    mat_mul,
    primitivize,
    quotient_project,
    smith_normal_form_full,
    solve_rational,
)
from torsod.serialize import certificate_from_obj, certificate_to_obj
from torsod.sod import (BlockLabel, _restricted_class_lattice, _vanishes,
                        _window_witness, block_labels)


def _settings(max_examples):
    return settings(max_examples=max_examples, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


_entries = st.integers(min_value=-30, max_value=30)


@st.composite
def _matrices(draw, max_dim=5):
    rows = draw(st.integers(min_value=1, max_value=max_dim))
    cols = draw(st.integers(min_value=1, max_value=max_dim))
    return [[draw(_entries) for _ in range(cols)] for _ in range(rows)]


def run_snf_properties(max_examples):
    """U m V == D with unimodular tracked transforms and divisor chain.

    A square matrix also gets a rational solve: None exactly when it is
    singular, otherwise a true solution.
    """

    @_settings(max_examples)
    @given(mat=_matrices(), data=st.data())
    def check(mat, data):
        rows, cols = len(mat), len(mat[0])
        u, d, v, uinv = smith_normal_form_full(mat)
        assert mat_mul(mat_mul(u, mat), v) == d
        assert abs(determinant(u)) == 1
        assert abs(determinant(v)) == 1
        assert mat_mul(u, uinv) == identity_matrix(rows)
        if rows == cols:
            rhs = [data.draw(_entries) for _ in range(rows)]
            sol = solve_rational(mat, rhs)
            assert (sol is None) == (determinant(mat) == 0)
            if sol is not None:
                assert [sum(a * b for a, b in zip(row, sol))
                        for row in mat] == rhs
        diag = [d[i][i] for i in range(min(rows, cols))]
        assert all(x >= 0 for x in diag)
        for a, b in zip(diag, diag[1:]):
            if a == 0:
                assert b == 0
            else:
                assert b % a == 0
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert d[i][j] == 0

    check()


def run_quotient_properties(max_examples):
    """The quotient projection kills its kernel generators and is onto."""

    @_settings(max_examples)
    @given(data=st.data())
    def check(data):
        rank = data.draw(st.integers(min_value=1, max_value=4))
        count = data.draw(st.integers(min_value=0, max_value=3))
        gens = [tuple(data.draw(_entries) for _ in range(rank))
                for _ in range(count)]
        proj = quotient_project(rank, gens)
        for g in gens:
            assert proj.apply(g) == (0,) * proj.target_rank
        # surjectivity: the projection matrix has trivial cokernel
        if proj.target_rank:
            group = cokernel([list(row) for row in proj.matrix])
            assert group.free_rank == 0 and group.order() == 1
        # linearity on a random pair
        x = [data.draw(_entries) for _ in range(rank)]
        y = [data.draw(_entries) for _ in range(rank)]
        both = proj.apply([a + b for a, b in zip(x, y)])
        assert both == tuple(a + b
                             for a, b in zip(proj.apply(x), proj.apply(y)))

    check()


def run_representative_properties(max_examples):
    """Canonical representatives are idempotent and coset-invariant."""

    @_settings(max_examples)
    @given(data=st.data())
    def check(data):
        rank = data.draw(st.integers(min_value=1, max_value=4))
        count = data.draw(st.integers(min_value=0, max_value=4))
        cols = [[data.draw(_entries) for _ in range(count)]
                for _ in range(rank)]
        group = cokernel(cols)
        v = [data.draw(_entries) for _ in range(rank)]
        rep = group.reduce(v)
        assert group.reduce(rep) == rep
        coeffs = [data.draw(st.integers(min_value=-5, max_value=5))
                  for _ in range(count)]
        shifted = [v[i] + sum(cols[i][j] * coeffs[j] for j in range(count))
                   for i in range(rank)]
        assert group.reduce(shifted) == rep

    check()


@st.composite
def _valid_datums(draw):
    alpha = draw(st.integers(min_value=2, max_value=3))
    zeros = draw(st.integers(min_value=0, max_value=1))
    n = alpha + zeros
    coeffs = [draw(st.integers(min_value=1, max_value=5))
              for _ in range(alpha)]
    # start from the standard simplicial cone, then shear coordinates so the
    # family is not just unit vectors; unimodular maps preserve validity
    rays = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            s = draw(st.integers(min_value=-3, max_value=3))
            if s:
                for k in range(n):
                    rays[k][i] += s * rays[k][j]
    rays = tuple(tuple(r) for r in rays)
    total = tuple(sum(coeffs[i] * rays[i][j] for i in range(alpha))
                  for j in range(n))
    ve, mult = primitivize(total)
    g = 0
    for c in coeffs + [mult]:
        g = gcd(g, c)
    coefficients = tuple(c // g for c in coeffs) + (0,) * zeros + (-mult // g,)
    orders = tuple(draw(st.integers(min_value=1, max_value=4))
                   for _ in range(n + 1))
    return make_datum(rays + (ve,), coefficients, orders)


@st.composite
def _extraction_datums(draw):
    """A ``_valid_datums`` draw made an extraction, with a sheared zero ray.

    Those rays form a basis and always give a_{n+1} = -1, so r_{n+1} and
    r_i > alpha a_i r_{n+1} for i <= alpha make sigma_alpha < 1 / r_{n+1}.
    A zero ray (if any) becomes t v_j + sum s_i v_i over i <= alpha: with
    t > 1 the restricted lattice can be a strict sublattice of L_tau, which
    is what makes blocks merge.
    """
    d = draw(_valid_datums())
    alpha = d.alpha
    rays = [list(v) for v in d.rays]
    for j in range(alpha, d.n):
        t = draw(st.integers(min_value=1, max_value=3))
        s = [draw(st.integers(min_value=-2, max_value=2))
             for _ in range(alpha)]
        sheared = [t * x + sum(si * rays[i][k] for i, si in enumerate(s))
                   for k, x in enumerate(rays[j])]
        rays[j] = primitivize(sheared)[0]
    last = draw(st.integers(min_value=1, max_value=2))
    orders = [draw(st.integers(min_value=alpha * a * last + 1,
                               max_value=alpha * a * last + 2))
              for a in d.coefficients[:alpha]]
    orders += [draw(st.integers(min_value=1, max_value=4))
               for _ in range(alpha, d.n)]
    out = make_datum(rays, d.coefficients, orders + [last])
    assert ref_sigma(out) < 0
    return out


def weighted_sum(d, k):
    """Reference: w(k) = sum(a_i * k_i / r_i) over a full-length vector k.

    The rational weight that ``DatumContext.W`` computes as the integer R * w.
    """
    if len(k) != d.n + 1:
        raise ValueError(f"exponent vector must have length {d.n + 1}")
    return weighted_sum_partial(d, k)


def weighted_sum_partial(d, k):
    """Reference: the same weighted sum over a vector of length <= n + 1."""
    if len(k) > d.n + 1:
        raise ValueError("exponent vector too long")
    return sum((Fraction(d.coefficients[i] * ki, d.orders[i])
                for i, ki in enumerate(k)), Fraction(0))


def ref_sigma(d):
    """Reference: sigma = sum(a_i / r_i) over all n+1 indices."""
    return sum((Fraction(a, r) for a, r in zip(d.coefficients, d.orders)),
               Fraction(0))


def ref_sigma_alpha(d):
    """Reference: sigma_alpha = sum(a_i / r_i) over i <= alpha."""
    return sum((Fraction(d.coefficients[i], d.orders[i])
                for i in range(d.alpha)), Fraction(0))


def ref_W(d, k):
    """Reference: the integer R * w(k), R = lcm(r_i), from the Fraction sum."""
    W = lcm(*d.orders) * weighted_sum_partial(d, k)
    assert W.denominator == 1
    return W.numerator


def solved_exceptional_exponent(d, k_local):
    """Reference: the unique rational k_{n+1} making w(k_local, k_{n+1}) 0."""
    if len(k_local) != d.n:
        raise ValueError(f"local exponent vector must have length {d.n}")
    a_last, r_last = d.coefficients[-1], d.orders[-1]
    return -Fraction(r_last, a_last) * weighted_sum_partial(d, k_local)


def ref_window_witness(d, label):
    """Reference: the exceptional exponent putting w in (-sigma_alpha, -sigma].

    Rational arithmetic throughout, to check the integer ``_window_witness``.
    """
    a_last, r_last = d.coefficients[-1], d.orders[-1]
    w_n = weighted_sum_partial(d, label)
    lo = Fraction(r_last, -a_last) * (ref_sigma(d) + w_n)
    hi = Fraction(r_last, -a_last) * (ref_sigma_alpha(d) + w_n)
    k = ceil(lo)
    assert k < hi
    return k


def ref_vanishes(d, k_local):
    """Reference: the solved exceptional exponent is not in r_{n+1} Z."""
    e = solved_exceptional_exponent(d, k_local)
    return not (e.denominator == 1 and e.numerator % d.orders[-1] == 0)


def run_weighted_sum_properties(max_examples):
    """w is linear, kills the relation, and sums to sigma on the all-ones.

    The integer form W = R * w of the datum context agrees with it, and the
    integer witness and vanishing test agree with their rational references.
    """

    @_settings(max_examples)
    @given(data=st.data())
    def check(data):
        d = data.draw(_valid_datums())
        m = d.n + 1
        x = [data.draw(_entries) for _ in range(m)]
        y = [data.draw(_entries) for _ in range(m)]
        c = data.draw(st.integers(min_value=-4, max_value=4))
        wx, wy = weighted_sum(d, x), weighted_sum(d, y)
        assert weighted_sum(d, [a + b for a, b in zip(x, y)]) == wx + wy
        assert weighted_sum(d, [c * a for a in x]) == c * wx
        assert weighted_sum(d, (1,) * m) == ref_sigma(d) == sigma(d)
        assert ref_sigma_alpha(d) == sigma_alpha(d) > 0
        # w kills every relation-lattice vector r_i <m, v_i>
        mvec = [data.draw(st.integers(min_value=-6, max_value=6))
                for _ in range(d.n)]
        rel = [d.orders[i] * sum(mm * vv for mm, vv in zip(mvec, d.rays[i]))
               for i in range(m)]
        assert weighted_sum(d, rel) == 0

        ctx = datum_context(d)
        assert ctx.W(x) == ctx.R * wx
        assert ctx.S == ctx.R * ref_sigma(d)
        assert ctx.S_alpha == ctx.R * ref_sigma_alpha(d)
        with pytest.raises(ValueError):
            ctx.W(x + [0])
        label = tuple(y[:d.n])
        assert _window_witness(ctx, label) == ref_window_witness(d, label)
        assert _vanishes(ctx, label) == ref_vanishes(d, label)

    check()


def ref_block_groups(ctx):
    """Reference for ``block_labels``: candidates merged by a pairwise loop.

    A candidate joins the first group whose first member has the same
    witnessed W and differs from it by an element of L_tau (``tau.contains``
    on the difference); the witness is solved in the block window directly.
    Groups are bucketed by W, so only same-W pairs are ever differenced.
    """
    alpha, S, C = ctx.datum.alpha, ctx.S, ctx.C
    group = _restricted_class_lattice(ctx.datum)

    def witness(W_alpha):
        # unique integer k with 0 < W_alpha - C k <= -S, or None
        k = -(-(S + W_alpha) // C)
        return None if C * k >= W_alpha else (k, W_alpha - C * k)

    preferred = {}
    for cand in product(*(range(-S // ctx.c[i] + 1) for i in range(alpha))):
        if 0 < ctx.W(cand) <= -S:
            key = group.reduce(cand)
            if key not in preferred or cand < preferred[key]:
                preferred[key] = cand
    candidates = []
    for rep in group.classes():
        if witness(ctx.W(rep)) is not None:
            label = preferred.get(rep, rep)
            k, W = witness(ctx.W(label))
            candidates.append((W, label, k))
    candidates.sort(key=lambda c: (c[0], c[1]))

    groups, by_W = [], {}
    for W, label, k in candidates:
        bucket = by_W.setdefault(W, [])
        for g in bucket:
            glabel = g[0][1]
            if ctx.tau.contains(tuple(x - y for x, y in zip(label, glabel))):
                g.append((W, label, k))
                break
        else:
            bucket.append([(W, label, k)])
            groups.append(bucket[-1])

    blocks = []
    for g in groups:
        g.sort(key=lambda item: (
            0 if all(x >= 0 for x in item[1]) and 0 < ctx.W(item[1]) <= -S
            else 1, item[1]))
        W, label, k = g[0]
        blocks.append(BlockLabel(label=label, witness=k, W=W,
                                 aliases=tuple(lab for _, lab, _ in g[1:])))
    blocks.sort(key=lambda b: (b.W, b.label))
    return blocks


def run_block_group_properties(max_examples):
    """``block_labels`` keys its merge by the tau class and loses nothing.

    On every extraction datum drawn it returns the blocks, witnesses and
    aliases of the pairwise reference, in the same order.
    """

    @_settings(max_examples)
    @given(data=st.data())
    def check(data):
        ctx = datum_context(data.draw(_extraction_datums()))
        assert block_labels(ctx) == ref_block_groups(ctx)

    check()


def ref_vertex_box(fan, k):
    """Reference for ``oracle._certified_box``, in rational arithmetic.

    Every d-subset of scaled rows r_j v_j with nonzero determinant is solved
    for its vertex of r_j <m, v_j> = -k_j by ``solve_rational``; the box is
    [ceil(min), floor(max)] of the vertex coordinates.
    """
    d = fan.rank
    verts = []
    for subset in combinations(range(len(fan.rays)), d):
        rows = [[fan.orders[j] * x for x in fan.rays[j]] for j in subset]
        vert = solve_rational(rows, [-k[j] for j in subset])
        if vert is not None:
            verts.append(vert)
    lo = tuple(min(ceil(v[i]) for v in verts) for i in range(d))
    hi = tuple(max(floor(v[i]) for v in verts) for i in range(d))
    return lo, hi


def ref_has_cycle(cert):
    """Reference: whether some node of ``cert`` is reachable from itself.

    A white/grey/black depth-first search over the child and block edges;
    edges to absent keys are skipped.  ``verify_certificate`` runs no such
    search, because a cycle always comes with another violation.
    """
    node_map = cert.node_map()
    WHITE, GREY, BLACK = 0, 1, 2
    color = dict.fromkeys(node_map, WHITE)

    def edges(key):
        node = node_map[key]
        out = node.children + ((node.block_key,) if node.block_key else ())
        return iter([k for k in out if k in node_map])

    for start in node_map:
        if color[start] != WHITE:
            continue
        color[start] = GREY
        stack = [(start, edges(start))]
        while stack:
            key, it = stack[-1]
            for nxt in it:
                if color[nxt] == GREY:
                    return True
                if color[nxt] == WHITE:
                    color[nxt] = GREY
                    stack.append((nxt, edges(nxt)))
                    break
            else:
                color[key] = BLACK
                stack.pop()
    return False


def ref_longest_descent(cert):
    """Reference: the most child edges on one path of a verified ``cert``.

    Children have a smaller coordinate sum, so visiting nodes by increasing
    sum finds every child's height before its parent's.
    """
    height = {}
    for node in sorted(cert.nodes, key=lambda nd: sum(nd.label)):
        height[node.key] = max((height[c] + 1 for c in node.children),
                               default=0)
    return max(height.values(), default=0)


def _tamper(rng, cert):
    """Redraw the children, block key or kind of one to three nodes."""
    keys = [node.key for node in cert.nodes]
    nodes = list(cert.nodes)
    for _ in range(rng.randint(1, 3)):
        pos = rng.randrange(len(nodes))
        node = nodes[pos]
        field = rng.choice(("children", "block_key", "kind"))
        if field == "children":
            children = list(node.children) or [node.key]
            children[rng.randrange(len(children))] = rng.choice(keys)
            change = tuple(children)
        elif field == "block_key":
            change = rng.choice(keys + [None])
        else:
            change = rng.choice(("span", "koszul", "block"))
        nodes[pos] = replace(node, **{field: change})
    return GenerationCertificate(targets=cert.targets, nodes=tuple(nodes))


def run_certificate_roundtrip_properties(max_examples):
    """Serialize/parse a generation certificate and re-verify it.

    The datum is a catalog extraction or an ``_extraction_datums`` draw, so
    certificates also meet merged blocks and rays that are not a basis.
    Besides free targets in [-6, 6]^n, each draw targets the zero-extended
    labels of one to three drawn blocks and one drawn alias of each merged
    one: their witnessed W is positive, so every such root is a Koszul node
    and the descent reaches the block's own node.  The depth guard refuses
    exactly the certificates whose longest descent exceeds it, and a
    tampered certificate that verifies has no cycle.
    """

    catalog = [canned_example(name).datum
               for name in ("a1-half", "a2-third", "a1-half-line")]

    @lru_cache(maxsize=None)
    def blocks_of(d):
        """The blocks of ``d``, enumerated once: hypothesis redraws a datum."""
        return block_labels(datum_context(d))

    @_settings(max_examples)
    @given(data=st.data())
    def check(data):
        d = data.draw(st.one_of(st.sampled_from(catalog), _extraction_datums()))
        count = data.draw(st.integers(min_value=1, max_value=3))
        targets = [tuple(data.draw(st.integers(min_value=-6, max_value=6))
                         for _ in range(d.n))
                   for _ in range(count)]
        blocks = blocks_of(d)
        drawn = data.draw(st.lists(st.sampled_from(blocks), min_size=1,
                                   max_size=3)) if blocks else []
        for b in drawn:
            targets.append(extend_block_label(d, b.label))
            if b.aliases:
                alias = data.draw(st.sampled_from(b.aliases))
                targets.append(extend_block_label(d, alias))
        cert = generation_certificate(d, targets)
        roots = cert.node_map()
        assert all(roots[key].kind == "koszul"
                   for _, key in cert.targets[count:])
        back = certificate_from_obj(certificate_to_obj(cert))
        assert back == cert
        verdict = verify_certificate(d, back)
        assert verdict.ok, verdict.violations

        depth = ref_longest_descent(cert)
        assert generation_certificate(d, targets, max_depth=depth) == cert
        with pytest.raises(DepthExceeded):
            generation_certificate(d, targets, max_depth=depth - 1)

        tampered = _tamper(data.draw(st.randoms(use_true_random=False)), cert)
        if verify_certificate(d, tampered).ok:
            assert not ref_has_cycle(tampered)

    check()


ALL_RUNNERS = (
    run_snf_properties,
    run_quotient_properties,
    run_representative_properties,
    run_weighted_sum_properties,
    run_certificate_roundtrip_properties,
)
