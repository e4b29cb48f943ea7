"""Difference-set machinery and the two S-ring construction recipes.

Recipe 1 turns a divisible difference set X in an abelian group G (relative
to N, satisfying the intersection condition) into a rank-5 partition of the
generalized dihedral group <G, u>:

    {e},  N^#,  G \\ N,  Xu,  (G \\ X)u.

Recipe 2 turns a closed linked system L = {X_a} of semiregular relative
difference sets in G (forbidden subgroup N, index set W, characteristic
functions chi/psi, constants mu/nu) into a rank-5 partition of G x U, where
U is the associate group on W + {infinity}:

    {e},  N^#,  G \\ N,  union of u X_phi(u),  union of u (G \\ X_phi(u)).

Both partitions span Higmanian S-rings; the second has parameters
(w+1, n*lam, n, n*lam*(n-1), (n-1)(w-1)*nu).  The Q8 central-product family
has its linked systems in closed form (``q8cp_linked_system``).  The heis
and ea families are instantiated at desk scale by brute-force search:
transversal RDS search one coset at a time over blocks of partial
transversals and their difference counts, linked-system search by closing a
family under inverses and product images.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .groups import (FiniteGroup, GroupError, GroupIsomorphism, Subgroup,
                     build_family, central_product_q8, check_order, cosets,
                     digit_fault, generalized_dihedral, gre_multiply,
                     isomorphisms, prime_power)
from .higmanian import DetectionResult, HigmanianParams, detect_higmanian
from .quadratic import QuadraticNumber
from .schemes import SchemeTable, cayley_scheme, plain_lines

QN = QuadraticNumber

SEARCH_SPACE_CAP = 1 << 24
_BLOCK_CELLS = 1 << 12  # difference counts per block of the RDS search


class ConstructionError(ValueError):
    pass


class FileFormatError(ConstructionError):
    """A linked-system file is not in its text format."""


# -- divisible and relative difference sets -------------------------------------

@dataclass(frozen=True)
class DivisibleDifferenceSet:
    group: FiniteGroup = field(repr=False)
    forbidden: Subgroup = field(repr=False)
    elements: tuple[int, ...]
    m: int
    n: int
    k: int
    lambda1: int
    lambda2: int

    @property
    def is_rds(self) -> bool:
        return self.lambda1 == 0

    @property
    def is_semiregular(self) -> bool:
        return self.is_rds and self.k == self.m


def verify_dds(G: FiniteGroup, N: Subgroup, X: Iterable[int]) -> DivisibleDifferenceSet:
    """Read (m, n, k, lambda1, lambda2) off the difference multiset of X,
    or raise with a witness element."""
    xs = tuple(sorted(set(int(x) for x in X)))
    if xs and not 0 <= xs[0] <= xs[-1] < G.order:
        raise ConstructionError(f"element outside 0..{G.order - 1}")
    diffs = gre_multiply(G, xs, G.inv[list(xs)])
    diffs[G.identity] -= len(xs)
    n_sharp = np.setdiff1d(N.elements, [G.identity])
    outside = np.setdiff1d(np.arange(G.order), N.elements)
    lams = []
    for where, part in (("on N^#", n_sharp), ("outside N", outside)):
        lam = int(diffs[part[0]]) if len(part) else 0
        bad = np.flatnonzero(diffs[part] != lam)
        if len(bad):
            x = int(part[bad[0]])
            raise ConstructionError(
                f"difference count not constant {where}: element {x} "
                f"has {int(diffs[x])}, element {int(part[0])} has {lam}")
        lams.append(lam)
    lam1, lam2 = lams
    return DivisibleDifferenceSet(
        group=G, forbidden=N, elements=xs, m=G.order // N.order,
        n=N.order, k=len(xs), lambda1=lam1, lambda2=lam2)


def intersection_condition(G: FiniteGroup, N: Subgroup, X: Iterable[int]) -> bool:
    """True when |X ∩ Ng| is the same for every right coset Ng."""
    xs = set(int(x) for x in X)
    counts = {len(xs & set(block)) for block in cosets(G, N)}
    return len(counts) == 1


# -- the recipes' shared tail ------------------------------------------------------

def _higmanian_cayley(G: FiniteGroup, parts: tuple[tuple[int, ...], ...],
                      want: HigmanianParams, U: FiniteGroup | None = None
                      ) -> tuple[SchemeTable, DetectionResult]:
    """The Cayley scheme of a recipe's partition of G x U and its
    detection, refused unless it is Higmanian with ``want`` in either
    labeling."""
    scheme = cayley_scheme(G, parts, U)
    det = detect_higmanian(scheme)
    if not det:
        raise ConstructionError(
            f"construction did not yield a Higmanian scheme: {det.reason}")
    if want not in (det.params, det.alt_params):
        raise ConstructionError(
            f"detected parameters {det.params} differ from expected {want}")
    return scheme, det


@dataclass
class Example1Result:
    group: FiniteGroup  # the generalized dihedral group <G, u>
    parts: tuple[tuple[int, ...], ...]
    scheme: SchemeTable
    detection: DetectionResult


def example1_construct(G: FiniteGroup, N: Subgroup,
                       X: Iterable[int]) -> Example1Result:
    """Generalized-dihedral S-ring from a DDS with the intersection condition."""
    if not G.is_abelian():
        raise ConstructionError("recipe needs an abelian group")
    dds = verify_dds(G, N, X)
    if not intersection_condition(G, N, X):
        raise ConstructionError("X fails the intersection condition")
    if N.order < 2 or N.order == G.order:
        raise ConstructionError("forbidden subgroup must be proper nontrivial")
    xs = set(dds.elements)
    if not xs or xs == set(range(G.order)):
        raise ConstructionError("X must be a nonempty proper subset")
    GD = generalized_dihedral(G)
    g = G.order
    parts = (
        (G.identity,),
        tuple(x for x in N.elements if x != G.identity),
        tuple(x for x in range(g) if x not in N.as_set),
        tuple(sorted(g + x for x in xs)),
        tuple(sorted(g + x for x in range(g) if x not in xs)),
    )
    # the n_T <= n_S convention reads k off the larger outside relation, so
    # a difference set smaller than its complement contributes mn - k
    k_s = max(dds.k, dds.m * dds.n - dds.k)
    want = HigmanianParams(f=2, m=dds.m, n=dds.n, k=k_s, t=0)
    scheme, det = _higmanian_cayley(GD, parts, want)
    return Example1Result(group=GD, parts=parts, scheme=scheme, detection=det)


# -- closed linked systems --------------------------------------------------------

@dataclass
class LinkedSystem:
    group: FiniteGroup = field(repr=False)
    forbidden: Subgroup = field(repr=False)
    sets: tuple[tuple[int, ...], ...]
    chi: tuple[int, ...]
    psi: dict[tuple[int, int], int] = field(repr=False)
    m: int = 0
    n: int = 0
    k: int = 0
    lam: int = 0
    mu: int = 0
    nu: int = 0
    branch: str = ""  # which sign branch of the (mu, nu) formulas is realized

    @property
    def w(self) -> int:
        return len(self.sets)

    @property
    def params(self) -> tuple[int, int, int, int, int, int, int]:
        return (self.m, self.n, self.k, self.lam, self.w, self.mu, self.nu)


def semiregular_mu_nu(n: int, lam: int) -> tuple[tuple[QN, QN], tuple[QN, QN]]:
    """The two admissible (mu, nu) pairs for a semiregular system:
    mu = (n*lam +- (n-1)sqrt(n*lam))/n paired with nu = (n*lam -+ sqrt(n*lam))/n."""
    if n < 1 or lam < 1:
        raise ConstructionError("need n, lam >= 1")
    s = QN.sqrt(n * lam)
    nl = QN(n * lam)
    plus = ((nl + s * (n - 1)) / n, (nl - s) / n)
    minus = ((nl - s * (n - 1)) / n, (nl + s) / n)
    return plus, minus


def _two_level_options(vec: np.ndarray, size: int) -> list[tuple[frozenset, int, int]]:
    """Decompositions of vec as mu*1_Y + nu*1_complement with |Y| = size."""
    vals = np.unique(vec)
    if len(vals) != 2:
        return []
    out = []
    for y_val, other in ((vals[0], vals[1]), (vals[1], vals[0])):
        y = frozenset(int(i) for i in np.nonzero(vec == y_val)[0])
        if len(y) == size:
            out.append((y, int(y_val), int(other)))
    return out


def verify_linked_system(G: FiniteGroup, N: Subgroup,
                         sets: Sequence[Iterable[int]]) -> LinkedSystem:
    """Check the closed-linked-system product law and recover (chi, psi, mu, nu).

    Every member must be an (m, n, k, lam)-RDS relative to N, and every
    product X_a X_b with b != chi(a) must be two-level on a family member,
    with one (mu, nu) throughout.  X_a X_chi(a) = X_a X_a^-1 is the
    difference multiset of X_a, which ``verify_dds`` has pinned to
    k*e + lam*(G \\ N) once lambda1 = 0 and (k, lam) is common, so only
    the w(w-1) other products are formed.

    Each pair takes the first of its two-level readings that lands on a
    member.  Both readings, Y and G \\ Y, land on members only when
    |Y| = |G \\ Y| = k <= m, that is n <= 2.  With n = 1, k(k-1) =
    lam(2k-1) forces k = 1, so G = C:2, as it is with n = 2 and m = 1;
    there every pair reads (0, 1) first, and lam = 0 has no sign branch.
    With n = 2 and m >= 2, N = {e, z}, k = m and G \\ Y = zY; the family
    then holds Y^-1 z, and Y Y^-1 z = m z + (m/2)(G \\ N), 0 at e, is not
    two-level, so that pair is refused whichever readings the others take.
    """
    family = [tuple(sorted(set(int(x) for x in s))) for s in sets]
    w = len(family)
    if w < 2:
        raise ConstructionError("a linked system needs w >= 2")
    if len(set(family)) != w:
        raise ConstructionError("family members must be distinct")
    rds = [verify_dds(G, N, s) for s in family]
    if any(d.lambda1 != 0 for d in rds):
        raise ConstructionError("a member hits the forbidden subgroup")
    ks = {d.k for d in rds}
    lams = {d.lambda2 for d in rds}
    if len(ks) != 1 or len(lams) != 1:
        raise ConstructionError("members have different (k, lambda)")
    k, lam = ks.pop(), lams.pop()
    m, n = rds[0].m, rds[0].n

    index = {frozenset(s): i for i, s in enumerate(family)}
    rec_chi = []
    for i, s in enumerate(family):
        inv = frozenset(int(G.inv[x]) for x in s)
        if inv not in index:
            raise ConstructionError(
                f"inverse of member {i} is not in the family")
        rec_chi.append(index[inv])

    # chi is a permutation, so w >= 2 leaves w(w-1) >= 2 pairs here; each
    # pair reads (mu, nu) and psi off the first member it is two-level on
    psi: dict[tuple[int, int], int] = {}
    laws = set()
    for a, b in itertools.product(range(w), repeat=2):
        if b == rec_chi[a]:
            continue
        vec = gre_multiply(G, family[a], family[b])
        for y, mu, nu in _two_level_options(vec, k):
            if y in index:
                psi[a, b] = index[y]
                laws.add((mu, nu))
                break
        else:
            raise ConstructionError(
                f"product of members {a},{b} is not two-level on a family "
                f"member")
    if len(laws) != 1:
        raise ConstructionError("no globally consistent (mu, nu)")
    (mu, nu), = laws

    branch = ""
    plus, minus = semiregular_mu_nu(n, lam)
    if (QN(mu), QN(nu)) == plus:
        branch = "+"
    elif (QN(mu), QN(nu)) == minus:
        branch = "-"
    elif k == m:
        raise ConstructionError(
            f"recovered (mu, nu) = ({mu}, {nu}) matches neither sign branch")
    return LinkedSystem(group=G, forbidden=N, sets=tuple(family),
                        chi=tuple(rec_chi), psi=psi, m=m, n=n, k=k, lam=lam,
                        mu=mu, nu=nu, branch=branch)


def associate_group(system: LinkedSystem) -> FiniteGroup:
    """The group on W + {infinity} induced by (chi, psi); index 0 is infinity.

    Associativity is validated, not assumed: a failure means the input was
    not a genuine closed linked system.
    """
    if system.k != system.m:
        raise ConstructionError("associate group needs semiregular members")
    w = system.w
    table = np.empty((w + 1, w + 1), dtype=np.int32)
    table[0, :] = np.arange(w + 1)
    table[:, 0] = np.arange(w + 1)
    for a in range(w):
        for b in range(w):
            if b == system.chi[a]:
                table[a + 1, b + 1] = 0
            else:
                table[a + 1, b + 1] = system.psi[(a, b)] + 1
    try:
        return FiniteGroup(table, name=f"assoc:{system.group.name}")
    except GroupError as exc:
        raise ConstructionError(
            f"induced operation is not a group: {exc}") from exc


# -- recipe 2 ---------------------------------------------------------------------

def recipe2_params(n: int, lam: int, w: int, nu: int) -> HigmanianParams:
    """Higmanian parameters of recipe 2 on a linked system with these
    (n, lam, w, nu)."""
    return HigmanianParams(f=w + 1, m=n * lam, n=n, k=n * lam * (n - 1),
                           t=(n - 1) * (w - 1) * nu)


@dataclass
class Example2Result:
    system: LinkedSystem
    U: FiniteGroup  # the points are G x U, (g, u) at index g*|U| + u
    group_name: str  # Prod:<G>,<U>
    parts: tuple[tuple[int, ...], ...]
    scheme: SchemeTable
    detection: DetectionResult

    @property
    def expected_params(self) -> HigmanianParams:
        L = self.system
        return recipe2_params(L.n, L.lam, L.w, L.nu)


def _same_group(a: FiniteGroup, b: FiniteGroup) -> bool:
    return a.order == b.order and bool((a.mul == b.mul).all())


def example2_construct(system: LinkedSystem,
                       phi: GroupIsomorphism | None = None) -> Example2Result:
    """Rank-5 partition of G x U from a closed linked system of semiregular
    RDSs; validates the S-ring and the detected parameters.

    U is ``phi.source``, and phi an isomorphism onto the associate group;
    without phi, U is the associate group itself, with the identity as phi.
    The point (g, u) has index g*|U| + u, and `cayley_scheme` reads the
    scheme off the tables of G and U: no G x U table is built.  The result
    keeps U and the product's name, Prod:<G>,<U>.
    """
    if system.k != system.m:
        raise ConstructionError("recipe needs semiregular members (k = m)")
    winf = associate_group(system)
    if phi is None:
        phi = GroupIsomorphism(winf, winf, tuple(range(winf.order)))
    if not _same_group(phi.target, winf):
        raise ConstructionError("phi must map U to the associate group")
    U = phi.source

    G = system.group
    uname = U.name if U.name and not U.name.startswith("assoc:") else "assoc"
    nu_ = U.order
    check_order(G.order * nu_)

    def idx(g: int, u: int) -> int:
        return g * nu_ + u

    N = system.forbidden
    t0 = (idx(G.identity, U.identity),)
    t1 = tuple(idx(x, U.identity) for x in N.elements if x != G.identity)
    t2 = tuple(idx(x, U.identity) for x in range(G.order)
               if x not in N.as_set)
    t3, t4 = [], []
    for u in range(U.order):
        if u == U.identity:
            continue
        x_set = set(system.sets[phi(u) - 1])
        for g in range(G.order):
            (t3 if g in x_set else t4).append(idx(g, u))
    parts = (t0, tuple(sorted(t1)), tuple(sorted(t2)),
             tuple(sorted(t3)), tuple(sorted(t4)))
    scheme, det = _higmanian_cayley(
        G, parts, recipe2_params(system.n, system.lam, system.w, system.nu),
        U)
    return Example2Result(system=system, U=U,
                          group_name=f"Prod:{G.name},{uname}", parts=parts,
                          scheme=scheme, detection=det)


# -- searches ----------------------------------------------------------------------

def search_semiregular_rds(G: FiniteGroup,
                           N: Subgroup) -> list[tuple[int, ...]]:
    """All transversals of N whose differences avoid N^# and cover G \\ N
    with constant multiplicity, sorted.

    Right translation by z keeps every difference x y^-1 and permutes the
    cosets Ng, so every such transversal is Y z with e in Y and z in N,
    for the one z it holds in N.  The search finds the Y, and each is
    translated by every z.  It is exhaustive, one coset of N per level,
    with N first: a block of partial transversals (their chosen elements
    and difference counts) is extended by every element of the next coset
    at once, and the rows whose counts stay 0 on N and at most lam
    elsewhere are kept.  Blocks are searched depth first and hold at most
    ``_BLOCK_CELLS`` counts once extended, so memory is bounded by the
    number of levels times the block size, not by the width of a level.
    ``SEARCH_SPACE_CAP`` still caps n^m.
    """
    n = N.order
    m = G.order // n
    if n ** m > SEARCH_SPACE_CAP:
        raise ConstructionError(
            f"search space {n}^{m} exceeds cap {SEARCH_SPACE_CAP}")
    if m % n:
        return []
    order = G.order
    mul, inv = G.mul, G.inv
    cap = np.full(order, m // n, dtype=np.int32)
    cap[list(N.elements)] = 0
    # row i: the i-th coset of N, N itself first
    blocks = np.array([N.elements] + [c for c in cosets(G, N)
                                      if c != N.elements])
    rows = max(1, _BLOCK_CELLS // (n * order))
    offsets = np.arange(0, rows * n * order, order)[:, None]
    # before the cap test a count is at most lam + 2m <= 3 * GROUP_ORDER_LIMIT
    # (lam = m when N is trivial): beyond int16, well inside int32
    stack = [(np.array([[G.identity]]), np.zeros((1, order), dtype=np.int32))]
    found = [np.empty((0, m), dtype=np.intp)]
    while stack:
        chosen, counts = stack.pop()
        level = chosen.shape[1]
        if level == m:
            found.append(chosen)
            continue
        xs = blocks[level]
        width = len(chosen) * n  # row b * n + j extends row b by xs[j]
        d = mul[xs[None, :, None], inv[chosen][:, None, :]]  # x y^-1
        d = (np.concatenate((d, inv[d]), axis=2).reshape(width, 2 * level)
             + offsets[:width])
        new = np.repeat(counts, n, axis=0)
        new += np.bincount(d.ravel(), minlength=width * order).reshape(
            width, order)
        keep = np.flatnonzero((new <= cap).all(axis=1))
        chosen = np.concatenate((chosen[keep // n], xs[keep % n, None]),
                                axis=1)
        new = new[keep]
        for lo in range(0, len(chosen), rows):
            stack.append((chosen[lo:lo + rows], new[lo:lo + rows]))
    Y = np.concatenate(found)
    translates = mul[Y[:, None, :], np.array(N.elements)[:, None]]  # y z
    return sorted(map(tuple, np.sort(translates.reshape(-1, m), axis=1)
                      .tolist()))


def _close(G: FiniteGroup, w: int, k: int, rds_set: set, cache: dict,
           fam: frozenset) -> frozenset | None:
    """Close a family of RDSs (frozensets) under inverses and product
    images, depth first over the viable images, those whose sorted tuple
    is in ``rds_set``; None when it exceeds w members or some product has
    no viable image."""
    if len(fam) > w:
        return None
    for s in fam:
        inv = frozenset(int(G.inv[x]) for x in s)
        if inv not in fam:
            return _close(G, w, k, rds_set, cache, fam | {inv})
    for a, b in itertools.product(sorted(fam, key=sorted), repeat=2):
        a_inv = frozenset(int(G.inv[x]) for x in a)
        if b == a_inv:
            continue  # the chi-pair: holds automatically for RDSs
        key = (tuple(sorted(a)), tuple(sorted(b)))
        if key not in cache:
            cache[key] = gre_multiply(G, *key)
        vec = cache[key]
        opts = [y for y, _, _ in _two_level_options(vec, k)]
        if not opts:
            return None
        if any(y in fam for y in opts):
            continue
        viable = [y for y in opts if tuple(sorted(y)) in rds_set]
        if not viable:
            return None
        for y in viable:
            got = _close(G, w, k, rds_set, cache, fam | {y})
            if got is not None:
                return got
        return None
    return fam if len(fam) == w else None


def search_linked_system(G: FiniteGroup, N: Subgroup, w: int,
                         rds_list: Sequence[tuple[int, ...]] | None = None,
                         mu_nu: tuple[int, int] | None = None) -> LinkedSystem | None:
    """Find a closed linked system of size w by closing a start RDS under
    inverses and product images; starts are tried in lex order.

    When both sign branches of (mu, nu) are realizable, ``mu_nu`` picks one;
    otherwise the lex-first system wins: one pass returns the first system
    on the ``mu_nu`` branch, else the first system it met.
    """
    if w < 2:
        raise ConstructionError("need w >= 2")
    if rds_list is None:
        rds_list = search_semiregular_rds(G, N)
    if not rds_list:
        return None
    # keyed by sorted tuples, which are cheaper to build than frozensets:
    # a search makes few lookups in many RDSs
    rds_set = {tuple(sorted(s)) for s in rds_list}
    k = len(rds_list[0])
    cache: dict = {}
    first = None
    seen: set[frozenset] = set()  # verification depends only on the family
    for start in rds_list:
        fam = _close(G, w, k, rds_set, cache, frozenset({frozenset(start)}))
        if fam is None or fam in seen:
            continue
        seen.add(fam)
        try:
            system = verify_linked_system(
                G, N, sorted(tuple(sorted(s)) for s in fam))
        except ConstructionError:
            continue
        if mu_nu is None or (system.mu, system.nu) == mu_nu:
            return system
        if first is None:
            first = system
    return first


# -- the known families, at desk scale ----------------------------------------------

# the parameters each family takes, in command-line order
FAMILY_PARAMS = {"q8cp": ("r",), "heis": ("q", "r"), "ea": ("q", "r", "j")}


def _family_setup(family: str, q: int | None, r: int | None,
                  j: int | None) -> tuple[int, int, str, str]:
    """Validate a family point and return (q, w, group spec, associate
    spec).  q8cp takes heis's parameters at q = 2."""
    if family not in FAMILY_PARAMS:
        raise ConstructionError(f"unknown family {family!r}")
    if r is None or r < 1:
        raise ConstructionError(f"{family} needs r >= 1, not {r}")
    if family == "q8cp":
        check_order(2, 2 * r + 1)
        return 2, 2, f"Q8cp:{r}", "C:3"
    if q is None or (family == "ea" and j is None):
        raise ConstructionError(
            "heis needs q and r" if family == "heis" else "ea needs q, r and j")
    check_order(q, 2 * r + 1)
    p, i = prime_power(q)
    if family == "heis":
        if p == 2:
            raise ConstructionError("heis family needs odd q")
        return q, q, f"Heis:{q}:{r}", f"C:{q + 1}"
    if j < 1 or j > i:
        raise ConstructionError("ea needs 1 <= j <= i")
    if p ** j < 3:
        raise ConstructionError(
            f"w = p^j - 1 = {p ** j - 1} < 2: no linked system")
    return q, p ** j - 1, f"EA:{p}:{i * (2 * r + 1)}", f"EA:{p}:{j}"


def table1_params(family: str, q: int | None = None, r: int | None = None,
                  j: int | None = None) -> tuple[int, ...]:
    """Closed-form linked-system parameters (m, n, k, lam, w, mu, nu)."""
    q, w, _, _ = _family_setup(family, q, r, j)
    eps = 1 if family == "ea" else -1
    m, lam = q ** (2 * r), q ** (2 * r - 1)
    return (m, q, m, lam, w, lam + eps * (q ** r - q ** (r - 1)),
            lam - eps * q ** (r - 1))


def table2_params(family: str, q: int | None = None, r: int | None = None,
                  j: int | None = None) -> HigmanianParams:
    """Closed-form Higmanian parameters of the constructed Cayley scheme:
    recipe 2 applied to Table 1."""
    _, n, _, lam, w, _, nu = table1_params(family, q, r, j)
    return recipe2_params(n, lam, w, nu)


@dataclass
class FamilyConstruction:
    family: str
    q: int | None
    r: int | None
    j: int | None
    system: LinkedSystem
    table1_expected: tuple[int, ...]
    table1_match: bool
    associate: FiniteGroup
    associate_expected_spec: str
    associate_match: bool
    result: Example2Result
    table2_expected: HigmanianParams
    table2_match: bool


def q8cp_linked_system(r: int) -> LinkedSystem:
    """Table 1's linked system {X_c, X_c^-1} of Q8cp:r relative to its
    center, X_c the elements of sign c = 1 - (r mod 2), verified by
    ``verify_linked_system``.

    Write x = (u, s), u in GF(2)^2r the axis bits and s the sign, so that
    (u, s)(v, t) = (u + v, s + t + beta(u, v)), Q(u) = beta(u, u) and
    (v, t)^-1 = (v, t + Q(v)).  The difference of (u, c) and (v, c) is
    (u + v, beta(u + v, v)), and beta(d, .) is a nonzero linear form for
    d != 0, so X_c meets each (d, s) off the center 2^(2r-1) times: a
    semiregular RDS for either c.  X_c X_c, the same for both c, holds
    (d, s) #{v : Q(v) + beta(d, v) = s} times.  With B_Q = beta + beta^T,
    beta(d, v) = B_Q(Wd, v) for W = B_Q^-1 beta, (d0, d1) -> (d1, d0 + d1)
    on each factor, an isometry of Q.  So Q(v) + beta(d, v) =
    Q(v + Wd) + Q(d), and the count is the number Z of zeros of Q on
    X_0^-1 = {(d, Q(d))}, and 2^2r - Z on its complement X_1^-1.  The pair
    is linked for both c, with mu = Z at c = 0 and 2^2r - Z at c = 1.  Q
    has Arf invariant r mod 2, so Z = 2^(2r-1) + (-1)^r 2^(r-1), and
    Table 1's mu = 2^(2r-1) - 2^(r-1) takes c != r mod 2; the other c
    gives the + branch.
    """
    G = central_product_q8(r)
    X = tuple(range(1 - r % 2, G.order, 2))
    X_inv = tuple(sorted(G.inv[list(X)].tolist()))
    return verify_linked_system(G, G.center(), sorted([X, X_inv]))


def construct_family(family: str, q: int | None = None, r: int | None = None,
                     j: int | None = None) -> FamilyConstruction:
    """End-to-end pipeline: a linked system, in closed form for q8cp and by
    search for heis and ea, then the associate group and the Cayley scheme,
    compared with the closed-form parameter tables.

    The searched families take N = {0, ..., q-1}, the last coordinate: the
    center of Heis(q, r), and a cyclic subgroup of EA:q:k, so ea is
    searched at prime q only.  The search returns its first linked system
    of size w on Table 1's (mu, nu) branch, else the first it meets.

    A point whose product group G x U would pass ``GROUP_ORDER_LIMIT`` is
    refused with ``GroupOrderError`` before any group is built."""
    _, w, group_spec, assoc_spec = _family_setup(family, q, r, j)
    t1 = table1_params(family, q, r, j)
    t2 = table2_params(family, q, r, j)
    check_order(t2.v)
    if family == "q8cp":
        system = q8cp_linked_system(r)
    elif family == "ea" and prime_power(q)[1] > 1:
        raise ConstructionError(
            f"no forbidden-subgroup candidates of order {q}")
    else:
        G = build_family(group_spec)
        system = search_linked_system(G, G.subgroup(range(q)), w,
                                      mu_nu=(t1[5], t1[6]))
        if system is None:
            raise ConstructionError(
                f"no closed linked system of size {w} found in {G.name}")

    assoc = associate_group(system)
    expected_assoc = build_family(assoc_spec)
    phi = next(iter(isomorphisms(expected_assoc, assoc)), None)
    # the named family group as U gives the product group a family spec
    # for a name; the choice of phi is immaterial
    result = example2_construct(system, phi)
    return FamilyConstruction(
        family=family, q=q, r=r, j=j, system=system, table1_expected=t1,
        table1_match=system.params == t1,
        associate=assoc, associate_expected_spec=assoc_spec,
        associate_match=phi is not None,
        result=result, table2_expected=t2,
        table2_match=result.detection.params == t2)


# -- file formats ---------------------------------------------------------------------

def write_linked_system(system: LinkedSystem, path) -> None:
    """Text format: group spec line, forbidden-subgroup elements, w, then the
    RDS element lists (chi and psi are recovered on read).  The group's
    name must be a family spec that rebuilds the same table."""
    G = system.group
    if not G.name:
        raise ConstructionError("group has no family spec; cannot serialize")
    try:
        rebuilt = build_family(G.name)
    except GroupError:
        raise ConstructionError(
            f"group name {G.name!r} is not a family spec; cannot serialize"
        ) from None
    if not _same_group(rebuilt, G):
        raise ConstructionError(
            f"spec {G.name!r} rebuilds a different element order")
    lines = [G.name, " ".join(str(x) for x in system.forbidden.elements),
             str(system.w)]
    lines += [" ".join(str(x) for x in s) for s in system.sets]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_linked_system(path) -> LinkedSystem:
    """Read `write_linked_system`'s format in the lines of `plain_lines`.
    The first line after the group spec with a token that `digit_fault`
    refuses is named before the RDS line count and the subgroup are checked."""
    with open(path, "rb") as fh:
        lines = plain_lines(fh.read(), FileFormatError)
    if len(lines) < 4:
        raise FileFormatError("linked-system file too short")
    G = build_family(lines[0].decode())
    rows = [line.split() for line in lines[1:]]
    for i, row in enumerate(rows):
        fault = next(filter(None, map(digit_fault, row)), None)
        if i == 1 and (fault or len(row) != 1):
            raise FileFormatError("bad w line")
        if fault:
            where = "subgroup line" if i == 0 else f"RDS line {i - 1}"
            raise FileFormatError(f"{where}: {fault}")
    subgroup, (w,), *sets = [list(map(int, row)) for row in rows]
    if len(sets) != w:
        raise FileFormatError(f"expected {w} RDS lines, found {len(sets)}")
    return verify_linked_system(G, G.subgroup(subgroup), sets)
