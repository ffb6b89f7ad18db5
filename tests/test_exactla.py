import hashlib
import json
import random
import sys
from bisect import bisect_left
from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reglab.exactla as exactla
from reglab.exactla import (
    GroupHom,
    IntMatrix,
    Lattice,
    PresentedAbelianGroup,
    _Echelon,
    _kernel_part,
    _preimage_echelon,
    block_diagonal_lattice,
    dual_hom,
    hermite_index,
    image_and_preimage,
    integer_kernel,
    invert_unimodular,
    map_orders,
    preimage_lattice,
    qindex,
    saturate,
    smith_blocks,
    smith_normal_form,
    smith_split,
    subquotient_group,
)
from reglab.errors import ConsistencyError, ResourceLimitError

from oracles import (
    cokernel_group,
    compose,
    contains_lattice,
    determinantal_divisors,
    forward_preimage_echelon,
    gf_rank,
    hermite_form_oracle,
    kernel_group,
    preimage_lattice_oracle,
    presented_from_divisors,
    qindex_bruteforce,
    qindex_via_groups,
    saturated_split,
)


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

def test_smith_2x2_handworked():
    # reduce [[2,4],[6,8]] by hand: gcd of entries is 2, |det| = 8, so (2, 4)
    sf = smith_normal_form(IntMatrix([[2, 4], [6, 8]]))
    assert sf.divisors == (2, 4)


def test_smith_diagonal_gcd_lcm():
    # diag(2,3) has gcd 1 and determinant 6
    sf = smith_normal_form(IntMatrix([[2, 0], [0, 3]]))
    assert sf.divisors == (1, 6)


def test_smith_transforms_and_chain_random():
    rng = random.Random(71)
    for trial in range(500):
        r = rng.randrange(1, 7)
        c = rng.randrange(1, 7)
        A = IntMatrix([[rng.randrange(-30, 31) for _ in range(c)] for _ in range(r)])
        sf = smith_normal_form(A)
        # U @ A @ V is diagonal for some unimodular V exactly when the
        # columns of U @ A span the lattice of diag(divisors)
        diag = [[d if j == i else 0 for j in range(r)]
                for i, d in enumerate(sf.divisors)]
        assert _column_lattice(sf.U @ A) == Lattice.from_rows(r, diag)
        assert abs(sf.U.determinant()) == 1
        for d1, d2 in zip(sf.divisors, sf.divisors[1:]):
            assert d1 > 0 and d2 % d1 == 0


def test_smith_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    rng = random.Random(5)
    for trial in range(60):
        r = rng.randrange(1, 6)
        c = rng.randrange(1, 6)
        A = [[rng.randrange(-9, 10) for _ in range(c)] for _ in range(r)]
        ours = smith_normal_form(IntMatrix(A)).divisors
        theirs = sympy_snf(sympy.Matrix(A))
        diag = [abs(theirs[i, i]) for i in range(min(r, c))]
        assert list(ours) == [d for d in diag if d != 0]


def test_smith_transforms_are_pinned():
    # sha256 of every (U, divisors) below, as the elimination produced them
    # before the Smith and modular invariant-factor loops were merged: the
    # minimal presentations of compress, and so the golden suite digests,
    # depend on U itself, not only on the divisors
    rng = random.Random(20261019)
    out = []
    for _ in range(400):
        r, c = rng.randrange(0, 8), rng.randrange(0, 8)
        bound = rng.choice((2, 9, 50, 1000))
        A = IntMatrix([[rng.randrange(-bound, bound + 1) for _ in range(c)]
                       for _ in range(r)], cols=c)
        sf = smith_normal_form(A)
        out.append([[list(row) for row in sf.U.entries], list(sf.divisors)])
    assert hashlib.sha256(json.dumps(out).encode()).hexdigest() == (
        "bfcbf9666efb413f869496ef68d2670feecaf4dda44b7a47eab95c11053ccd56")


def test_smith_zero_and_empty():
    assert smith_normal_form(IntMatrix.zeros(3, 2)).divisors == ()
    assert smith_normal_form(IntMatrix([], cols=4)).divisors == ()


# ---------------------------------------------------------------------------
# lattices and Hermite canonicity
# ---------------------------------------------------------------------------

def test_lattice_canonical_under_regeneration():
    rng = random.Random(9)
    for trial in range(200):
        n = rng.randrange(1, 6)
        gens = [[rng.randrange(-8, 9) for _ in range(n)] for _ in range(rng.randrange(1, 5))]
        L = Lattice.from_rows(n, gens)
        # shuffled generators and random integer recombinations span the same
        # lattice and must produce the identical canonical form
        shuffled = gens[:]
        rng.shuffle(shuffled)
        extra = []
        for _ in range(3):
            coeffs = [rng.randrange(-2, 3) for _ in gens]
            extra.append([sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(n)])
        L2 = Lattice.from_rows(n, shuffled + extra)
        assert L == L2
        for g in gens:
            assert L.contains(g)


_PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def _int_rows(max_rows, max_cols):
    """Non-empty integer matrices as lists of rows with small entries."""
    return st.integers(1, max_cols).flatmap(lambda c: st.lists(
        st.lists(st.integers(-9, 9), min_size=c, max_size=c),
        min_size=1, max_size=max_rows))


@_PROPERTY
@given(_int_rows(5, 5), st.lists(st.tuples(
    st.sampled_from(("add", "swap", "negate")), st.integers(0, 4),
    st.integers(0, 4), st.integers(-3, 3)), max_size=10))
def test_lattice_basis_is_fixed_by_unimodular_row_operations(rows, ops):
    n = len(rows[0])
    L = Lattice.from_rows(n, rows)
    for op, i, j, c in ops:
        i, j = i % len(rows), j % len(rows)
        if op == "swap":
            rows[i], rows[j] = rows[j], rows[i]
        elif op == "negate":
            rows[i] = [-x for x in rows[i]]
        elif i != j:
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    assert Lattice.from_rows(n, rows).basis_rows == L.basis_rows


@_PROPERTY
@given(st.data(), _int_rows(5, 5))
def test_lattice_basis_is_fixed_by_row_order(data, rows):
    n = len(rows[0])
    shuffled = data.draw(st.permutations(rows))
    assert Lattice.from_rows(n, shuffled).basis_rows == Lattice.from_rows(n, rows).basis_rows


@_PROPERTY
@given(_int_rows(4, 6))
def test_integer_kernel_is_the_saturated_solution_lattice(rows):
    A = IntMatrix(rows)
    K = integer_kernel(A)
    assert all(not any(A.apply(k)) for k in K.basis_rows)
    assert saturate(K) == K
    # full rank: entries below 10 keep every minor of A below 2^31 - 1, so the
    # rank mod that prime is the rank over Q
    assert K.rank == A.cols - gf_rank(rows, 2**31 - 1)


@st.composite
def _rows_with_dependents(draw):
    """(width, rows): up to 9 rows in Z^width, width 0..7, drawn with
    entries -9..9, and among them zero rows and combinations of others."""
    width = draw(st.integers(0, 7))
    rows = draw(st.lists(st.lists(st.integers(-9, 9), min_size=width, max_size=width),
                         max_size=9))
    for _ in range(draw(st.integers(0, 9 - len(rows)))):
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(rows), max_size=len(rows)))
        combination = [sum(c * r[k] for c, r in zip(coeffs, rows)) for k in range(width)]
        rows.insert(draw(st.integers(0, len(rows))), combination)
    return width, rows


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_rows_with_dependents())
def test_echelon_engine_matches_the_hermite_definition(case):
    width, rows = case
    expected = hermite_form_oracle(rows, width)
    pivots = tuple(next(k for k, a in enumerate(row) if a) for row in expected)
    expected = tuple(map(tuple, expected))
    assert Lattice.from_rows(width, rows).basis_rows == expected
    ech = _Echelon(width)
    for row in rows:
        ech.add(row)
    assert ech.canonical() == (expected, pivots)
    # the stored rows are an echelon with the oracle's pivots, not
    # necessarily reduced above them
    assert tuple(ech.pivots) == pivots
    for row, p, want in zip(ech.rows, ech.pivots, expected):
        assert not any(row[:p]) and row[p] == want[p] > 0


def test_echelon_leaves_the_entries_above_its_pivots_to_canonical():
    ech = _Echelon(2)
    ech.add((1, 5))
    ech.add((0, 2))
    assert ech.rows == [[1, 5], [0, 2]]
    assert ech.canonical() == (((1, 1), (0, 2)), (0, 1))


def test_lattice_rejects_vectors_of_the_wrong_length():
    for L, vec in ((Lattice.zero(3), [0]), (Lattice.full(2), [1, 0, 0]),
                   (Lattice.from_rows(2, [[2, 0]]), [2])):
        for read in (L.contains, lambda v: L.coordinate_matrix([v])):
            with pytest.raises(ValueError, match="ambient rank"):
                read(vec)


@st.composite
def _lattice_and_combination(draw):
    """(L, c, w): L spanned by up to n drawn rows in Z^n, n 1..6, scaled by
    1..3, the coefficients c of a vector over L's Hermite rows, and a drawn
    vector w."""
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n),
                         max_size=n))
    L = Lattice.from_rows(n, [[k * a for a in row] for row in rows])
    c = draw(st.lists(st.integers(-20, 20), min_size=L.rank, max_size=L.rank))
    w = draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n))
    return L, c, w


@_PROPERTY
@given(_lattice_and_combination())
def test_lattice_readers_match_the_definition_of_coordinates(case):
    # v = sum c_i b_i over the Hermite rows b_i has coordinates c, and v + w
    # is a member exactly when w is, which the Hermite oracle decides
    L, c, w = case
    n, basis = L.ambient_rank, L.basis_rows
    v = [sum(ci * b[j] for ci, b in zip(c, basis)) for j in range(n)]
    assert L.contains(v)
    assert L.coordinate_matrix([v, [0] * n]) == IntMatrix(
        [c, [0] * L.rank], cols=L.rank).transpose()
    u = [a + b for a, b in zip(v, w)]
    member = hermite_form_oracle(list(basis) + [w], n) == [list(b) for b in basis]
    assert L.contains(u) == member
    coords = L.coordinate_matrix([u])
    if member:
        coords = coords.column(0)
        assert [sum(ci * b[j] for ci, b in zip(coords, basis)) for j in range(n)] == u
    else:
        assert coords is None
        assert L.coordinate_matrix([v, u]) is None


def test_lattice_membership_and_coordinates():
    L = Lattice.from_rows(3, [[2, 0, 0], [0, 3, 0]])
    assert L.contains([4, 3, 0])
    assert not L.contains([1, 0, 0])
    assert not L.contains([0, 0, 1])
    coords = L.coordinate_matrix([[4, 3, 0]]).column(0)
    recon = [0, 0, 0]
    for c, row in zip(coords, L.basis_rows):
        for i in range(3):
            recon[i] += c * row[i]
    assert recon == [4, 3, 0]


def test_coordinate_matrix_shape_and_membership():
    L = Lattice.from_rows(3, [[2, 0, 1], [0, 3, 0]])
    vectors = [[2, 0, 1], [4, 3, 2], [0, 0, 0]]
    C = L.coordinate_matrix(vectors)
    assert (C.rows, C.cols) == (L.rank, len(vectors))
    assert L.basis @ C == IntMatrix(vectors).transpose()
    empty = L.coordinate_matrix([])
    assert (empty.rows, empty.cols) == (L.rank, 0)
    assert L.coordinate_matrix([[2, 0, 1], [1, 0, 0]]) is None
    assert L.coordinate_matrix([[0, 0, 1]]) is None
    zero = Lattice.zero(2).coordinate_matrix([[0, 0], [0, 0]])
    assert (zero.rows, zero.cols) == (0, 2)


def test_integer_kernel_line():
    A = IntMatrix([[1, 2, 3]])
    K = integer_kernel(A)
    assert K.rank == 2
    assert K.contains([2, -1, 0])
    assert K.contains([3, 0, -1])
    for row in K.basis_rows:
        assert sum(a * b for a, b in zip([1, 2, 3], row)) == 0


def test_integer_kernel_random_saturated():
    rng = random.Random(31)
    for trial in range(150):
        r = rng.randrange(1, 5)
        c = rng.randrange(1, 6)
        A = IntMatrix([[rng.randrange(-6, 7) for _ in range(c)] for _ in range(r)])
        K = integer_kernel(A)
        for row in K.basis_rows:
            assert all(v == 0 for v in A.apply(row))
        # saturated: the kernel equals its own saturation
        assert saturate(K) == K


def test_preimage_lattice_contains_relations_and_maps_in():
    rng = random.Random(13)
    for trial in range(100):
        rows = rng.randrange(1, 4)
        cols = rng.randrange(1, 5)
        C = IntMatrix([[rng.randrange(-4, 5) for _ in range(cols)] for _ in range(rows)])
        L = Lattice.from_rows(rows, [[rng.randrange(-4, 5) for _ in range(rows)]
                                     for _ in range(rng.randrange(0, 3))])
        P = preimage_lattice(C.columns(), L)
        for row in P.basis_rows:
            assert L.contains(C.apply(row)) or all(v == 0 for v in C.apply(row))
        # kernel of C always sits inside the preimage
        assert contains_lattice(P, integer_kernel(C))


def _small_matrix(rows, cols):
    return st.lists(st.lists(st.integers(-6, 6), min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


@st.composite
def _map_and_lattice(draw):
    """(C, L): a small integer matrix C and a lattice L in Z^(C.rows)."""
    r = draw(st.integers(0, 4))
    n = draw(st.integers(0, 5))
    C = IntMatrix(draw(_small_matrix(r, n)), cols=n)
    gens = draw(st.integers(0, 4))
    L = Lattice.from_rows(r, draw(_small_matrix(gens, r)))
    return C, L


def _column_lattice(A):
    """The lattice spanned by the columns of A, in Z^(A.rows)."""
    return Lattice.from_rows(A.rows, A.columns())


def _same_lattice(a, b):
    # pivots too: a lattice built straight from echelon rows must carry the
    # pivots that from_rows would find
    return a == b and a._pivots == b._pivots


@settings(max_examples=200, deadline=None)
@given(_map_and_lattice())
def test_kernel_and_preimage_match_oracles(case):
    C, L = case
    assert _same_lattice(preimage_lattice(C.columns(), L), preimage_lattice_oracle(C, L))
    K = integer_kernel(C)
    assert _same_lattice(K, Lattice.from_rows(C.cols, K.basis_rows))
    for row in K.basis_rows:
        assert not any(C.apply(row))


@_PROPERTY
@given(_map_and_lattice())
def test_one_pass_gives_the_image_and_the_preimage(case):
    # the image half against a Hermite pass of its own over C's columns and L
    C, L = case
    image, pre = image_and_preimage(C.columns(), L)
    assert _same_lattice(image, Lattice.from_rows(C.rows, C.columns() + list(L.basis_rows)))
    assert _same_lattice(pre, preimage_lattice(C.columns(), L))


def test_preimage_width_cap_reaches_the_kernel_width(monkeypatch):
    # r + n = 5 fits, but a kernel of [C | -L] is r + n + L.rank = 7 wide
    C = IntMatrix([[1, 2, 3], [0, 4, 5]])
    L = Lattice.from_rows(2, [[2, 0], [0, 3]])
    monkeypatch.setenv("REGLAB_LIMIT_COLS", "6")
    with pytest.raises(ResourceLimitError):
        preimage_lattice(C.columns(), L)
    monkeypatch.setenv("REGLAB_LIMIT_COLS", "7")
    assert preimage_lattice(C.columns(), L) == preimage_lattice_oracle(C, L)


def test_preimage_echelon_checks_the_kernel_width_and_its_own(monkeypatch):
    # the kernel width r + n + L.rank, then the echelon's own width r + n,
    # as every echelon checks it; each check reads the environment
    reads, widths = [], []
    limit, check = exactla.column_limit, exactla._check_width

    def counted():
        reads.append(1)
        return limit()

    def recorded(width):
        widths.append(width)
        check(width)

    monkeypatch.setattr(exactla, "column_limit", counted)
    monkeypatch.setattr(exactla, "_check_width", recorded)
    rng = random.Random(21)
    for _ in range(30):
        r, n = rng.randrange(0, 5), rng.randrange(0, 6)
        C = IntMatrix([[rng.randrange(-6, 7) for _ in range(n)] for _ in range(r)], cols=n)
        L = Lattice.from_rows(r, [[rng.randrange(-6, 7) for _ in range(r)]
                                  for _ in range(rng.randrange(0, r + 2))])
        reads.clear()
        widths.clear()
        _preimage_echelon(C.columns(), L)
        assert widths == [r + n + L.rank, r + n], (C.entries, L.basis_rows)
        assert len(reads) == 2, (C.entries, L.basis_rows)


def test_preimage_columns_must_fit_the_lattice():
    with pytest.raises(ValueError, match="row count"):
        _preimage_echelon([[1, 2], [3, 4, 5]], Lattice.zero(2))
    with pytest.raises(ValueError, match="row count"):
        image_and_preimage([[1, 2]], Lattice.zero(3))


def test_saturate_properties():
    L = Lattice.from_rows(3, [[2, 2, 0], [0, 4, 0]])
    S = saturate(L)
    assert S.rank == L.rank
    assert contains_lattice(S, L)
    assert saturate(S) == S
    assert S.contains([1, 1, 0])
    assert S.contains([0, 1, 0])
    assert not S.contains([0, 0, 1])
    full = Lattice.from_rows(3, [[2, 1, 0], [0, 3, 0], [1, 0, 5]])
    assert saturate(full) == Lattice.full(3)
    assert Lattice.full(3) == Lattice.from_rows(3, IntMatrix.identity(3).entries)


def test_block_diagonal_lattice():
    A = Lattice.from_rows(2, [[2, 0], [0, 3]])
    B = Lattice.from_rows(2, [[3, 0], [0, 2]])
    blk = block_diagonal_lattice([A, B])
    assert blk.ambient_rank == 4
    assert blk.contains([2, 0, 0, 0]) and blk.contains([0, 0, 0, 2])
    assert not blk.contains([0, 2, 0, 0])


def test_column_width_cap(monkeypatch):
    monkeypatch.setenv("REGLAB_LIMIT_COLS", "8")
    with pytest.raises(ResourceLimitError):
        integer_kernel(IntMatrix.zeros(5, 5))
    monkeypatch.setenv("REGLAB_LIMIT_COLS", "64")
    integer_kernel(IntMatrix.zeros(5, 5))


def test_invert_unimodular_roundtrip():
    rng = random.Random(3)
    for trial in range(50):
        n = rng.randrange(1, 6)
        # random unimodular: product of elementary operations on the identity
        m = IntMatrix.identity(n).to_lists()
        for _ in range(3 * n):
            i, j = rng.randrange(n), rng.randrange(n)
            if i == j:
                continue
            q = rng.randrange(-3, 4)
            for k in range(n):
                m[i][k] += q * m[j][k]
        M = IntMatrix(m)
        Minv = invert_unimodular(M)
        assert M @ Minv == IntMatrix.identity(n)


# ---------------------------------------------------------------------------
# the preimage echelon's row order
# ---------------------------------------------------------------------------

@st.composite
def _map_and_hermite_lattice(draw):
    """(C, L): C with entries -6..6, possibly with no rows or no columns,
    and L in Z^(C.rows) of rank 0, deficient rank or full rank."""
    r = draw(st.integers(0, 4))
    n = draw(st.integers(0, 5))
    C = IntMatrix(draw(_small_matrix(r, n)), cols=n)
    kind = draw(st.sampled_from(("zero", "deficient", "full")))
    if kind == "zero" or r == 0:
        return C, Lattice.zero(r)
    if kind == "deficient":
        return C, Lattice.from_rows(r, draw(_small_matrix(r - 1, r)))
    diagonal = draw(st.lists(st.integers(1, 6), min_size=r, max_size=r))
    rows = draw(_small_matrix(draw(st.integers(0, 3)), r))
    rows += [[d if i == j else 0 for j in range(r)] for i, d in enumerate(diagonal)]
    return C, Lattice.from_rows(r, rows)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_map_and_hermite_lattice())
def test_seeded_preimage_echelon_matches_the_forward_order(case):
    # a Hermite form is unique, so the row order changes no result
    C, L = case
    r = C.rows
    ref = forward_preimage_echelon(C, L)
    ech = _preimage_echelon(C.columns(), L)
    # the pivots and pivot entries of the rows as stored, before any
    # reduction above them, do not depend on the row order either
    assert ech.pivots == ref.pivots
    assert ([row[p] for row, p in zip(ech.rows, ech.pivots)]
            == [row[p] for row, p in zip(ref.rows, ref.pivots)])
    assert ech.canonical() == ref.canonical()
    split = bisect_left(ref.pivots, r)
    image = Lattice(r, ref.canonical(0, split, r)[0])
    pre = _kernel_part(ref, r)
    got_image, got_pre = image_and_preimage(C.columns(), L)
    assert _same_lattice(got_image, image) and _same_lattice(got_pre, pre)
    assert _same_lattice(preimage_lattice(C.columns(), L), pre)
    kernel = _kernel_part(forward_preimage_echelon(C, Lattice.zero(r)), r)
    assert _same_lattice(integer_kernel(C), kernel)


@_PROPERTY
@given(st.integers(0, 6).flatmap(lambda n: st.tuples(
    st.permutations(range(n)),
    st.lists(st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0)),
                       st.integers(-3, 3)), max_size=3 * n))))
def test_invert_unimodular_against_products(case):
    perm, ops = case
    n = len(perm)
    m = [[1 if perm[i] == j else 0 for j in range(n)] for i in range(n)]
    for i, j, q in ops:
        if i != j:
            m[i] = [a + q * b for a, b in zip(m[i], m[j])]
    M = IntMatrix(m, cols=n)
    Minv = invert_unimodular(M)
    assert M @ Minv == IntMatrix.identity(n) == Minv @ M


def _count_calls(monkeypatch, name):
    calls = []
    method = getattr(_Echelon, name)

    def counted(self, *args):
        calls.append(args)
        return method(self, *args)

    monkeypatch.setattr(_Echelon, name, counted)
    return calls


def test_the_preimage_echelon_eliminates_only_the_matrix_columns(monkeypatch):
    # L's Hermite rows seed the echelon: one add per column of C, none per
    # row of L
    adds = _count_calls(monkeypatch, "add")
    rng = random.Random(20)
    for _ in range(60):
        r, n = rng.randrange(0, 5), rng.randrange(0, 6)
        C = IntMatrix([[rng.randrange(-6, 7) for _ in range(n)] for _ in range(r)], cols=n)
        L = Lattice.from_rows(r, [[rng.randrange(-6, 7) for _ in range(r)]
                                  for _ in range(rng.randrange(0, r + 2))])
        adds.clear()
        _preimage_echelon(C.columns(), L)
        assert len(adds) == C.cols, (C.entries, L.basis_rows)


def test_kernel_rows_are_placed_once_each(monkeypatch):
    # columns 5, 4 combine into the image row gcd 1 and one kernel row, and
    # columns 3..0 reduce by it to one kernel row each, each leading at its
    # own identity coordinate: 7 rows placed, where the first-to-last order
    # placed 10. add reduces a row it places or changes by the rows below
    # it, once per placement, so its calls of the shared loop count them.
    placed = []
    loop = exactla._reduce_at_pivots

    def counted(*args):
        if sys._getframe(1).f_code is _Echelon.add.__code__:
            placed.append(args)
        return loop(*args)

    monkeypatch.setattr(exactla, "_reduce_at_pivots", counted)
    K = integer_kernel(IntMatrix([[1, 2, 3, 4, 5, 6]]))
    assert K.rank == 5
    assert len(placed) == 7


# ---------------------------------------------------------------------------
# presented groups and subquotients
# ---------------------------------------------------------------------------

def test_subquotient_two_torsion_plane():
    U = Lattice.from_rows(2, [[1, 1], [2, 0]])
    V = Lattice.from_rows(2, [[2, 2], [4, 0]])
    G = subquotient_group(U, V)
    assert G.invariants() == (0, (2, 2))
    assert G.order() == 4


def test_subquotient_rejects_non_nested():
    U = Lattice.from_rows(2, [[2, 0]])
    V = Lattice.from_rows(2, [[1, 1]])
    with pytest.raises(ValueError, match="not a subquotient"):
        subquotient_group(U, V)


def test_presented_group_invariants():
    G = presented_from_divisors([2, 6], free_rank=1)
    assert G.free_rank == 1
    assert G.torsion_divisors == (2, 6)
    assert G.order() is None
    assert G.torsion_order() == 12
    H = PresentedAbelianGroup.free(0)
    assert H.invariants() == (0, ()) and H.order() == 1


@st.composite
def _nested_lattices(draw):
    """(U, V): Hermite lattices V <= U <= Z^n, V spanned by integer
    combinations of U's basis rows, so U/V has torsion and a free part."""
    n = draw(st.integers(0, 5))
    U = Lattice.from_rows(n, draw(_small_matrix(draw(st.integers(0, 5)), n)))
    combos = draw(st.lists(st.lists(st.integers(-4, 4), min_size=U.rank,
                                    max_size=U.rank), max_size=5))
    V = Lattice.from_rows(n, [[sum(c * u[i] for c, u in zip(cs, U.basis_rows))
                               for i in range(n)] for cs in combos])
    return U, V


@_PROPERTY
@given(_nested_lattices())
def test_subquotients_read_their_relations_off_the_hermite_forms(case):
    # the relations are spanned by V's coordinates in U's basis; their
    # lattice, read off without a second pass, is the Hermite form of them
    U, V = case
    group = subquotient_group(U, V)
    coords = U.coordinate_matrix(V.basis_rows)
    assert (group.generator_count, group.relations.rank) == (U.rank, V.rank)
    assert _same_lattice(group.relations, _column_lattice(coords))
    assert group.invariant_factors == smith_normal_form(coords).divisors
    # the torsion of Z^n / V, on the basis of V's saturation
    S = saturate(V)
    torsion = subquotient_group(S, V)
    in_S = S.coordinate_matrix(V.basis_rows)
    assert _same_lattice(torsion.relations, _column_lattice(in_S))
    assert torsion.invariant_factors == smith_normal_form(in_S).divisors


def test_subquotient_relations_are_reduced_above_their_pivots():
    # V's coordinates in U's basis are echelon rows, but not always reduced:
    # here the first has -1 above the pivot 1 of the second
    U = Lattice.from_rows(3, [[1, 6, 24], [0, 10, 0], [0, 0, 29]])
    V = Lattice.from_rows(3, [[2, 2, 48], [0, 10, 29], [0, 0, 116]])
    assert U.coordinate_matrix(V.basis_rows).columns()[0] == [2, -1, 0]
    assert subquotient_group(U, V).relations.basis_rows == (
        (2, 0, 1), (0, 1, 1), (0, 0, 4))
    # and on seeded random nested lattices, about 3 % of which need it
    rng = random.Random(5)
    for _ in range(1500):
        n = rng.randrange(1, 5)
        U = Lattice.from_rows(n, [[rng.randrange(-6, 7) for _ in range(n)]
                                  for _ in range(rng.randrange(1, 5))])
        V = Lattice.from_rows(n, [[sum(c * u[i] for c, u in zip(cs, U.basis_rows))
                                   for i in range(n)]
                                  for cs in [[rng.randrange(-4, 5) for _ in U.basis_rows]
                                             for _ in range(rng.randrange(1, 5))]])
        coords = U.coordinate_matrix(V.basis_rows)
        assert _same_lattice(subquotient_group(U, V).relations,
                             _column_lattice(coords))


def test_equal_lattices_give_the_identity_presentation(monkeypatch):
    # U/U needs no coordinates: they are the identity, with unit divisors
    rng = random.Random(9)
    cases = [Lattice.zero(3), Lattice.full(4), Lattice.from_rows(2, [[2, 1], [0, 3]])]
    cases += [Lattice.from_rows(n, [[rng.randrange(-6, 7) for _ in range(n)]
                                    for _ in range(rng.randrange(0, 5))])
              for n in (rng.randrange(1, 6) for _ in range(20))]
    expected = [_column_lattice(U.coordinate_matrix(U.basis_rows)) for U in cases]

    def no_coordinates(self, vec):
        raise AssertionError("coordinates taken")

    monkeypatch.setattr(Lattice, "_reduce", no_coordinates)
    for U, lattice in zip(cases, expected):
        group = subquotient_group(U, U)
        assert group.generator_count == U.rank
        assert _same_lattice(group.relations, lattice)
        assert group.invariant_factors == (1,) * U.rank
        assert group.order() == 1


def test_torsion_relations_need_no_saturation(monkeypatch):
    # a relation lattice of deficient rank: its torsion order, then its
    # invariant factors, off the lattice of its columns, with no saturation
    calls = []
    real = exactla.saturate

    def counted(L):
        calls.append(L)
        return real(L)

    monkeypatch.setattr(exactla, "saturate", counted)
    group = PresentedAbelianGroup(Lattice.from_rows(3, [[2, 0, 2], [0, 4, 4]]))
    assert group.free_rank == 1
    assert group.torsion_order() == 8
    assert group.invariant_factors == (2, 4)
    assert group.torsion_order() == 8
    assert calls == []
    # the saturation route gives the same order and invariant factors
    torsion = subquotient_group(exactla.saturate(group.relations), group.relations)
    assert (torsion.torsion_order(), torsion.invariant_factors) == (8, (2, 4))
    assert len(calls) == 1


@_PROPERTY
@given(st.integers(1, 5).flatmap(lambda k: st.tuples(
    st.just(k), _small_matrix(k - 1, k))))
def test_torsion_is_read_off_the_column_lattice(case):
    # C = U D V in Smith form: the torsion of Z^k over the rows of C is Z^c
    # over its columns, a full-rank c x c lattice with the same divisors
    k, rows = case
    L = Lattice.from_rows(k, rows)
    group = PresentedAbelianGroup(L)
    columns = group._torsion_relations()
    assert (columns.ambient_rank, columns.rank) == (L.rank, L.rank)
    divisors = tuple(d for d in smith_normal_form(L.basis).divisors if d != 1)
    assert group.torsion_divisors == divisors
    assert group.torsion_order() == prod(divisors)
    assert group.invariant_factors == (1,) * (L.rank - len(divisors)) + divisors


def test_smith_split_refuses_torsion_carried_onto_free_coordinates(monkeypatch):
    # the target's Smith coordinates swapped: the torsion generator of Z/2 + Z
    # lands on the free coordinate, which is refused, not split
    group = PresentedAbelianGroup(Lattice.from_rows(2, [[2, 0]]))
    f = GroupHom(group, group, IntMatrix.identity(2))
    real = exactla.smith_coordinates

    def swapped(L):
        project, embed, divisors = real(L)
        return IntMatrix(project.entries[::-1]), embed, divisors

    monkeypatch.setattr(exactla, "smith_coordinates", swapped)
    with pytest.raises(ConsistencyError, match="torsion onto the free"):
        smith_split(f)


def test_smith_blocks_are_the_torsion_and_free_corners():
    # 2 torsion source and 1 torsion target coordinates: rows 1.. meet
    # columns 0..1 in the lower-left block, which must be zero
    F = IntMatrix([[1, 2, 3, 4], [0, 0, 5, 6], [0, 0, 7, 8]])
    assert smith_blocks(F, 2, 1) == (IntMatrix([[1, 2]]), IntMatrix([[5, 6], [7, 8]]))
    assert smith_blocks(F, 0, 0) == (IntMatrix([], cols=0), F)
    with pytest.raises(ConsistencyError, match="torsion onto the free"):
        smith_blocks(F, 3, 1)


def test_unit_pivots_drop_out_of_the_modular_elimination():
    # Hermite rows with unit pivots in columns 0 and 2 and entries right of
    # them: those rows kill their own generators, and what is left is the
    # block [[2, 1], [0, 6]] of rows and columns 1 and 3, with factors 1, 12
    rows = [[1, 1, 0, 2], [0, 2, 0, 1], [0, 0, 1, 5], [0, 0, 0, 6]]
    group = PresentedAbelianGroup(Lattice.from_rows(4, rows))
    assert group.relations.basis_rows == tuple(map(tuple, rows))
    assert group.invariant_factors == (1, 1, 1, 12) == tuple(determinantal_divisors(rows))
    g = PresentedAbelianGroup(Lattice.from_rows(3, [[1, 0, 0], [4, 2, 0], [4, 0, 2]]))
    assert g.invariant_factors == (1, 2, 2)


def test_modular_elimination_keeps_every_entry_a_symmetric_residue(monkeypatch):
    # an entry left unreduced can become a pivot that reads the same
    # divisor gcd(pivot, n) but is not the residue: here 3 for 1 mod 8
    m = [[-6, -9, 0], [3, 1, 4], [-3, -1, -6], [-1, 7, -3]]
    assert exactla._diagonalize(m, 3, 8) == 3
    assert m == [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]]
    # each pivot search and each gcd step sees entries in [-n/2, n/2] only;
    # -n/2 is a residue n/2 whose row was made positive
    search, xgcd, seen = exactla._pivot_search, exactla.xgcd, []

    def checked_search(m, t, rows, cols):
        seen.extend(a for row in m for a in row)
        return search(m, t, rows, cols)

    def checked_xgcd(a, b):
        seen.extend((a, b))
        return xgcd(a, b)

    monkeypatch.setattr(exactla, "_pivot_search", checked_search)
    monkeypatch.setattr(exactla, "xgcd", checked_xgcd)
    rng = random.Random(23)
    # a gcd row step whose rows, unreduced, reach a later gcd step
    cases = [([[16, -8, -7, -4], [-6, -8, -10, -6]], 16)]
    for _ in range(300):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        cases.append(([[rng.randint(-99, 99) for _ in range(c)] for _ in range(r)],
                      rng.choice([2, 3, 4, 6, 8, 12, 16, 30, 64])))
    for m, n in cases:
        seen.clear()
        exactla._diagonalize([list(row) for row in m], len(m[0]), n)
        assert seen and 2 * max(map(abs, seen)) <= n, (m, n)


@_PROPERTY
@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4), st.data())
def test_matrix_product_matches_the_triple_loop(r, k, c, data):
    A = data.draw(_small_matrix(r, k))
    B = data.draw(_small_matrix(k, c))
    got = IntMatrix(A, cols=k) @ IntMatrix(B, cols=c)
    assert (got.rows, got.cols) == (r, c)
    assert got.to_lists() == [[sum(A[i][t] * B[t][j] for t in range(k))
                               for j in range(c)] for i in range(r)]


def test_transposes_keep_empty_shapes():
    assert IntMatrix.zeros(0, 3).transpose().entries == ((), (), ())
    three_empty = IntMatrix.zeros(3, 0).transpose()
    assert (three_empty.rows, three_empty.cols) == (0, 3)
    assert three_empty.columns() == [[], [], []]
    assert IntMatrix.zeros(2, 0).columns() == []
    assert IntMatrix([[1, 2], [3, 4], [5, 6]]).transpose().columns() == [[1, 2], [3, 4], [5, 6]]
    with pytest.raises(ValueError):
        IntMatrix([[1, 2], [3]])
    # a 0 x n matrix: the preimage of 0 is all of Z^n
    assert integer_kernel(IntMatrix.zeros(0, 3)) == Lattice.full(3)
    for r, c in ((0, 3), (3, 0), (2, 3)):
        T = IntMatrix.zeros(r, c).transpose()
        assert (T.rows, T.cols, len(T.entries)) == (c, r, c)


def test_checked_matrix_refuses_floats():
    with pytest.raises(TypeError):
        IntMatrix([[0.5, 2.9]])
    with pytest.raises(TypeError):
        IntMatrix([["3"]])
    # bools are ints, as the JSON boundary refuses them on its own
    assert IntMatrix([[True, False]]).entries == ((1, 0),)


def test_checked_matrix_refuses_fractions():
    with pytest.raises(TypeError):
        IntMatrix([[Fraction(7, 2)]])


def test_identity_is_the_nested_definition():
    for n in range(9):
        ident = IntMatrix.identity(n)
        assert (ident.rows, ident.cols) == (n, n)
        assert ident.entries == tuple(tuple(1 if i == j else 0 for j in range(n))
                                      for i in range(n))


def test_hstack_takes_any_number_of_matrices():
    A, B, E = IntMatrix([[1, 2], [3, 4]]), IntMatrix([[5], [6]]), IntMatrix.zeros(2, 0)
    assert A.hstack() == A
    assert A.hstack(B, E, A) == IntMatrix([[1, 2, 5, 1, 2], [3, 4, 6, 3, 4]])
    assert IntMatrix.hstack(E, E) == E
    assert IntMatrix.hstack(IntMatrix.zeros(0, 2), IntMatrix.zeros(0, 1)).cols == 3
    with pytest.raises(ValueError, match="row count"):
        A.hstack(B, IntMatrix([[1]]))


def test_lattice_matrices_keep_their_shapes():
    # Lattice.basis and coordinate_matrix wrap rows exactla computed itself
    L = Lattice.from_rows(3, [[2, 0, 1], [0, 3, 0]])
    assert L.basis == IntMatrix([[2, 0], [0, 3], [1, 0]])
    assert Lattice.zero(3).basis == IntMatrix.zeros(3, 0)
    assert L.coordinate_matrix([[4, 3, 2], [2, 0, 1]]) == IntMatrix([[2, 1], [1, 0]])
    assert L.coordinate_matrix([]) == IntMatrix.zeros(2, 0)
    assert L.coordinate_matrix([[1, 0, 0]]) is None


# ---------------------------------------------------------------------------
# q-index
# ---------------------------------------------------------------------------

def test_qindex_surjection_z4_to_z2():
    # enumeration oracle: kernel {0, 2} has order 2, cokernel is trivial
    src = presented_from_divisors([4])
    tgt = presented_from_divisors([2])
    f = GroupHom(src, tgt, IntMatrix([[1]]))
    assert qindex(f) == Fraction(1, 2)
    assert qindex_bruteforce([4], [2], [[1]]) == Fraction(1, 2)


def test_a_hom_must_carry_every_relation_row():
    # the identity on Z/2 + Z/3 -> Z/2 + Z sends the last relation row out
    with pytest.raises(ValueError, match="relation row 1 maps outside"):
        GroupHom(presented_from_divisors([2, 3]),
                 presented_from_divisors([2], free_rank=1), IntMatrix.identity(2))
    # seeded matrices: accepted exactly when the images of the relations
    # leave the target's Hermite form unchanged
    rng = random.Random(61)
    for _ in range(300):
        a, b = rng.randrange(1, 4), rng.randrange(1, 4)
        src = Lattice.from_rows(a, [[rng.randrange(-3, 4) for _ in range(a)]
                                    for _ in range(rng.randrange(0, a + 1))])
        tgt = Lattice.from_rows(b, [[rng.randrange(-3, 4) for _ in range(b)]
                                    for _ in range(rng.randrange(0, b + 2))])
        F = IntMatrix([[rng.randrange(-2, 3) for _ in range(a)] for _ in range(b)])
        images = [F.apply(r) for r in src.basis_rows]
        want = Lattice.from_rows(b, list(tgt.basis_rows) + images) == tgt
        try:
            GroupHom(PresentedAbelianGroup(src), PresentedAbelianGroup(tgt), F)
            got = True
        except ValueError:
            got = False
        assert got == want, (src.basis_rows, tgt.basis_rows, F.entries)


def test_qindex_infinite_is_none():
    src = PresentedAbelianGroup.free(1)
    tgt = PresentedAbelianGroup.free(2)
    f = GroupHom(src, tgt, IntMatrix([[1], [0]]))
    assert qindex(f) is None


def test_qindex_against_enumeration_oracle():
    rng = random.Random(17)
    for trial in range(80):
        ds = [rng.choice([2, 3, 4]) for _ in range(rng.randrange(1, 3))]
        es = [rng.choice([2, 3, 4, 6]) for _ in range(rng.randrange(1, 3))]
        # valid hom: entry (j,i) must be a multiple of e_j / gcd(d_i, e_j)
        mat = []
        for j, e in enumerate(es):
            row = []
            for i, d in enumerate(ds):
                from math import gcd
                step = e // gcd(d, e)
                row.append(step * rng.randrange(0, max(1, e // step)))
            mat.append(row)
        src = presented_from_divisors(ds)
        tgt = presented_from_divisors(es)
        f = GroupHom(src, tgt, IntMatrix(mat))
        assert qindex(f) == qindex_bruteforce(ds, es, mat)


@st.composite
def _homs(draw):
    """Homs between presented groups of rank 0..3 whose kernels and
    cokernels may each be finite or infinite: target relations absorb the
    images of the source relations and add their own."""
    a, b = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    entries = st.integers(-4, 4)
    F = [draw(st.lists(entries, min_size=a, max_size=a)) for _ in range(b)]
    src_rel = draw(st.lists(st.lists(entries, min_size=a, max_size=a), max_size=a + 1))
    tgt_rel = [[sum(x * y for x, y in zip(row, r)) for row in F] for r in src_rel]
    tgt_rel += draw(st.lists(st.lists(entries, min_size=b, max_size=b), max_size=b + 1))
    src = PresentedAbelianGroup(Lattice.from_rows(a, src_rel))
    tgt = PresentedAbelianGroup(Lattice.from_rows(b, tgt_rel))
    return GroupHom(src, tgt, IntMatrix(F, cols=a))


@_PROPERTY
@given(_homs())
def test_qindex_matches_the_kernel_and_cokernel_groups(f):
    assert qindex(f) == qindex_via_groups(f)
    assert (map_orders(f.matrix.columns(), Lattice.full(f.target.generator_count),
                       f.target.relations, f.source.relations)
            == (cokernel_group(f).order(), kernel_group(f).order()))


@st.composite
def _finite_homs(draw):
    """(divisors of the source, of the target, matrix) for a hom between
    finite groups sum Z/d_i -> sum Z/e_j of rank 0..3."""
    ds = draw(st.lists(st.integers(1, 4), max_size=3))
    es = draw(st.lists(st.integers(1, 6), max_size=3))
    # entry (j, i) must be a multiple of e_j / gcd(d_i, e_j)
    mat = [[e // gcd(d, e) * draw(st.integers(0, 5)) for d in ds] for e in es]
    return ds, es, mat


@_PROPERTY
@given(_finite_homs())
def test_qindex_matches_enumeration_on_finite_groups(case):
    ds, es, mat = case
    f = GroupHom(presented_from_divisors(ds), presented_from_divisors(es),
                 IntMatrix(mat, cols=len(ds)))
    assert qindex(f) == qindex_via_groups(f) == qindex_bruteforce(ds, es, mat)


def _random_hom(rng) -> GroupHom:
    """Random hom with finite q-index: target relations absorb mapped ones."""
    k = rng.randrange(1, 4)
    l = rng.randrange(1, 4)
    F = IntMatrix([[rng.randrange(-4, 5) for _ in range(k)] for _ in range(l)])
    src_rel = [[rng.randrange(-4, 5) for _ in range(k)] for _ in range(rng.randrange(0, k + 1))]
    tgt_rows = [F.apply(r) for r in src_rel]
    tgt_rows += [[rng.randrange(-4, 5) for _ in range(l)] for _ in range(rng.randrange(0, l + 1))]
    src = PresentedAbelianGroup(Lattice.from_rows(k, src_rel))
    tgt = PresentedAbelianGroup(Lattice.from_rows(l, tgt_rows))
    return GroupHom(src, tgt, F)


def test_qindex_split_identities_random():
    # q(f) = q(tors f) * q(mt f)   and   q(f) = q(f^*) * q(tors f)
    rng = random.Random(2024)
    checked = 0
    while checked < 200:
        f = _random_hom(rng)
        q = qindex(f)
        if q is None:
            continue
        tors, free = smith_split(f)
        qt, qm = qindex(tors), qindex(free)
        qd = qindex(dual_hom(f))
        assert qt is not None and qm is not None and qd is not None
        assert q == qt * qm
        assert q == qd * qt
        checked += 1


def test_qindex_suite_splits_each_hom_once(monkeypatch):
    # one Smith split per trial: the Smith coordinates of each side once
    from reglab.suites import run_suite
    calls = []
    real = exactla.smith_coordinates
    monkeypatch.setattr(exactla, "smith_coordinates",
                        lambda L: calls.append(L) or real(L))
    run_suite("qindex", trials=20, seed=0)
    assert len(calls) == 2 * 20


@st.composite
def _finite_index_homs(draw):
    """A map Z^k / L_s -> Z^l / L_t, k, l 1..4, whose target relations
    contain the images of the source ones, plus up to l drawn rows."""
    k, l = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    F = IntMatrix(draw(_small_matrix(l, k)))
    src_rel = draw(st.lists(st.lists(st.integers(-6, 6), min_size=k, max_size=k),
                            max_size=k))
    tgt_rows = [F.apply(r) for r in src_rel] + draw(_small_matrix(draw(st.integers(0, l)), l))
    return GroupHom(PresentedAbelianGroup(Lattice.from_rows(k, src_rel)),
                    PresentedAbelianGroup(Lattice.from_rows(l, tgt_rows)), F)


@_PROPERTY
@given(_finite_index_homs())
def test_smith_split_matches_the_saturation_split(f):
    # tors f and mt f as Smith blocks: on the torsion divisors and free ranks
    # of f's two sides, with the q-indices of the split through saturations
    tors, free = smith_split(f)
    assert tors.source.invariants() == (0, f.source.torsion_divisors)
    assert tors.target.invariants() == (0, f.target.torsion_divisors)
    assert (free.source.invariants(), free.target.invariants()) == (
        (f.source.free_rank, ()), (f.target.free_rank, ()))
    ref_tors, ref_free = saturated_split(f)
    assert qindex(tors) == qindex(ref_tors)
    assert qindex(free) == qindex(ref_free)


def test_qindex_dual_equals_qindex_for_torsion_free():
    rng = random.Random(77)
    checked = 0
    while checked < 60:
        n = rng.randrange(1, 4)
        F = IntMatrix([[rng.randrange(-5, 6) for _ in range(n)] for _ in range(n)])
        if F.determinant() == 0:
            continue
        f = GroupHom(PresentedAbelianGroup.free(n), PresentedAbelianGroup.free(n), F)
        assert qindex(f) == qindex(dual_hom(f)) == abs(F.determinant())
        checked += 1


def test_qindex_multiplicative_on_compositions():
    rng = random.Random(5150)
    checked = 0
    while checked < 100:
        k = rng.randrange(1, 4)
        F = IntMatrix([[rng.randrange(-3, 4) for _ in range(k)] for _ in range(k)])
        G = IntMatrix([[rng.randrange(-3, 4) for _ in range(k)] for _ in range(k)])
        A = PresentedAbelianGroup.free(k)
        f = GroupHom(A, A, F)
        g = GroupHom(A, A, G)
        qf, qg, qgf = qindex(f), qindex(g), qindex(compose(g, f))
        if qf is None or qg is None:
            continue
        assert qgf == qf * qg
        checked += 1


def test_invariant_factors_agree_with_smith_transforms():
    """The modular divisor route must match the transform-carrying route."""
    rng = random.Random(424)
    for _ in range(300):
        rows = rng.randrange(1, 7)
        cols = rng.randrange(0, 7)
        mat = IntMatrix([[rng.randrange(-9, 10) for _ in range(cols)]
                         for _ in range(rows)], cols=cols)
        want = smith_normal_form(mat).divisors
        got = PresentedAbelianGroup(_column_lattice(mat)).invariant_factors
        assert tuple(got) == tuple(want)


@_PROPERTY
@given(st.data(), st.integers(1, 5), st.booleans())
def test_invariants_match_the_smith_divisors(data, k, deficient):
    # a full-rank relation lattice skips the saturation, a deficient one not
    cols = data.draw(st.integers(0, 5))
    rows = [data.draw(st.lists(st.integers(-9, 9), min_size=cols, max_size=cols))
            for _ in range(k)]
    if deficient:
        rows[-1] = [0] * cols
    else:
        diag = data.draw(st.lists(st.integers(1, 9), min_size=k, max_size=k))
        rows = [r + [d if i == j else 0 for j, d in enumerate(diag)]
                for i, r in enumerate(rows)]
    rel = IntMatrix(rows, cols=len(rows[0]))
    divisors = smith_normal_form(rel).divisors
    want = (k - len(divisors), tuple(d for d in divisors if d != 1))
    assert PresentedAbelianGroup(_column_lattice(rel)).invariants() == want


@_PROPERTY
@given(st.integers(1, 5), st.integers(0, 5), st.data())
def test_both_smith_routes_match_the_determinantal_divisors(rows, cols, data):
    A = [data.draw(st.lists(st.integers(-9, 9), min_size=cols, max_size=cols))
         for _ in range(rows)]
    want = tuple(determinantal_divisors(A))
    mat = IntMatrix(A, cols=cols)
    assert smith_normal_form(mat).divisors == want
    assert PresentedAbelianGroup(_column_lattice(mat)).invariant_factors == want


@st.composite
def _relation_matrices(draw):
    """Relation matrices with zero columns, dependent rows or columns and
    any shape up to 5 x 5."""
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    A = [draw(st.lists(st.integers(-9, 9), min_size=cols, max_size=cols))
         for _ in range(rows)]
    for j in draw(st.sets(st.integers(0, max(cols - 1, 0)), max_size=cols)):
        for row in A:
            row[j] = 0
    deficiency = draw(st.sampled_from(("none", "row", "column")))
    c = draw(st.integers(-3, 3))
    if deficiency == "row" and rows >= 2:
        A[-1] = [a + c * b for a, b in zip(A[0], A[1])]
    elif deficiency == "column" and cols >= 2:
        for row in A:
            row[-1] = row[0] + c * row[1]
    return rows, cols, A


@_PROPERTY
@given(_relation_matrices())
def test_orders_and_ranks_come_off_hermite_pivots(case):
    rows, cols, A = case
    group = PresentedAbelianGroup(_column_lattice(IntMatrix(A, cols=cols)))
    free, torsion, order = group.free_rank, group.torsion_order(), group.order()
    assert group._snf is None  # no Smith elimination ran
    want = determinantal_divisors(A)
    assert group.invariant_factors == tuple(want)
    assert free == rows - len(want)
    assert torsion == prod(want)
    assert order == (None if free else torsion)
    # the same answers from cached divisors
    assert (group.free_rank, group.torsion_order(), group.order()) == (free, torsion, order)


def test_hermite_index_is_the_order_of_the_subquotient():
    # V spanned by integer combinations of U's rows, kept when the ranks agree
    rng = random.Random(26)
    seen = 0
    for _ in range(300):
        n = rng.randrange(1, 5)
        U = Lattice.from_rows(n, [[rng.randrange(-4, 5) for _ in range(n)]
                                  for _ in range(rng.randrange(1, n + 2))])
        combos = [[rng.randrange(-3, 4) for _ in U.basis_rows] for _ in range(U.rank + 1)]
        V = Lattice.from_rows(n, [[sum(c * u[j] for c, u in zip(cs, U.basis_rows))
                                   for j in range(n)] for cs in combos])
        if V.rank == U.rank:
            seen += 1
            assert hermite_index(U, V) == subquotient_group(U, V).order()
    assert seen > 150
    # 3Z does not lie in 2Z, and the pivot products 3 and 2 do not divide
    with pytest.raises(ConsistencyError, match="do not divide"):
        hermite_index(Lattice.from_rows(1, [[2]]), Lattice.from_rows(1, [[3]]))


def test_invariant_factors_frozen_examples():
    g = PresentedAbelianGroup(_column_lattice(IntMatrix([[2, 0], [0, 3]])))
    assert g.invariant_factors == (1, 6)
    g = PresentedAbelianGroup(_column_lattice(IntMatrix([[2, 0], [0, 2], [0, 0]])))
    assert g.invariant_factors == (2, 2)
    assert g.free_rank == 1
    g = PresentedAbelianGroup(_column_lattice(IntMatrix([[4, 6], [6, 4]])))
    assert g.invariant_factors == (2, 10)
    g = PresentedAbelianGroup(_column_lattice(IntMatrix([[0]], cols=1)))
    assert g.invariant_factors == ()
    assert g.free_rank == 1


def test_invariant_factors_large_unimodular_conjugate():
    """A dense unimodular disguise of a known group must come back exactly.

    Entries of the presentation are hundreds of digits away from the clean
    diagonal; only an elimination with controlled entry growth finishes.
    """
    rng = random.Random(31337)
    divisors = [1, 2, 6, 12, 0, 0]
    n = len(divisors)
    D = [[divisors[i] if i == j else 0 for j in range(n)] for i in range(n)]
    L = IntMatrix.identity(n).to_lists()
    R = IntMatrix.identity(n).to_lists()
    for _ in range(60):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randrange(-4, 5)
        for k in range(n):
            L[i][k] += c * L[j][k]
            R[k][j] += c * R[k][i]
    M = (IntMatrix(L) @ IntMatrix(D)) @ IntMatrix(R)
    got = PresentedAbelianGroup(_column_lattice(M)).invariant_factors
    assert got == (1, 2, 6, 12)
    assert PresentedAbelianGroup(_column_lattice(M)).free_rank == 2
