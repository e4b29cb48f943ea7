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
(w+1, n*lam, n, n*lam*(n-1), (n-1)(w-1)*nu).  Brute-force searchers
instantiate the known families at desk scale: transversal RDS search one
coset at a time over blocks of partial transversals and their difference
counts, linked-system search by closing a family under inverses and product
images.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .groups import (FiniteGroup, GroupError, GroupIsomorphism, Subgroup,
                     build_family, check_order, cosets, direct_product,
                     gre_multiply, isomorphisms, prime_power)
from .higmanian import DetectionResult, HigmanianParams, detect_higmanian
from .quadratic import QuadraticNumber
from .schemes import SchemeTable, cayley_scheme

QN = QuadraticNumber

SEARCH_SPACE_CAP = 1 << 24
_BLOCK_CELLS = 1 << 12  # difference counts per block of the RDS search


class ConstructionError(ValueError):
    pass


class FileFormatError(ConstructionError):
    """A linked-system or partition file is not in its text format."""


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
    n_sharp = [x for x in N.elements if x != G.identity]
    outside = [x for x in range(G.order) if x not in N.as_set]
    lams = []
    for where, part in (("on N^#", n_sharp), ("outside N", outside)):
        lam = int(diffs[part[0]]) if part else 0
        for x in part:
            if diffs[x] != lam:
                raise ConstructionError(
                    f"difference count not constant {where}: element {x} "
                    f"has {int(diffs[x])}, element {part[0]} has {lam}")
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


# -- S-ring partitions -----------------------------------------------------------

@dataclass(frozen=True)
class SRingPartition:
    group: FiniteGroup = field(repr=False)
    parts: tuple[tuple[int, ...], ...]

    def scheme(self) -> SchemeTable:
        return cayley_scheme(self.group, self.parts)


@dataclass
class Example1Result:
    dds: DivisibleDifferenceSet
    partition: SRingPartition
    scheme: SchemeTable
    detection: DetectionResult


def example1_construct(G: FiniteGroup, N: Subgroup,
                       X: Iterable[int]) -> Example1Result:
    """Generalized-dihedral S-ring from a DDS with the intersection condition."""
    from .groups import generalized_dihedral

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
    partition = SRingPartition(group=GD, parts=parts)
    scheme = partition.scheme()
    det = detect_higmanian(scheme)
    if not det:
        raise ConstructionError(
            f"construction did not yield a Higmanian scheme: {det.reason}")
    # the n_T <= n_S convention reads k off the larger outside relation, so
    # a difference set smaller than its complement contributes mn - k
    k_s = max(dds.k, dds.m * dds.n - dds.k)
    want = HigmanianParams(f=2, m=dds.m, n=dds.n, k=k_s, t=0)
    if det.params != want and det.alt_params != want:
        raise ConstructionError(
            f"detected parameters {det.params} differ from expected {want}")
    return Example1Result(dds=dds, partition=partition, scheme=scheme,
                          detection=det)


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


def _product_vector(G: FiniteGroup, cache: dict, a: tuple, b: tuple) -> np.ndarray:
    key = (a, b)
    if key not in cache:
        cache[key] = gre_multiply(G, a, b)
    return cache[key]


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
                         sets: Sequence[Iterable[int]],
                         chi: Sequence[int] | None = None) -> LinkedSystem:
    """Check the closed-linked-system product law and recover (chi, psi, mu, nu).

    Every member must be an (m, n, k, lam)-RDS relative to N, and every
    product X_a X_b with b != chi(a) must be two-level on a family member,
    with one (mu, nu) throughout.  X_a X_chi(a) = X_a X_a^-1 is the
    difference multiset of X_a, which ``verify_dds`` has pinned to
    k*e + lam*(G \\ N) once lambda1 = 0 and (k, lam) is common, so only
    the w(w-1) other products are formed.  The law taken is the first law
    of the least pair that every pair shares.
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
    if chi is not None and tuple(chi) != tuple(rec_chi):
        raise ConstructionError("supplied chi disagrees with the inverses")

    # chi is a permutation, so w >= 2 leaves w(w-1) >= 2 pairs here; each
    # pair maps its readings (mu, nu) to the member c it is two-level on
    laws: dict[tuple[int, int], dict[tuple[int, int], int]] = {}
    for a, b in itertools.product(range(w), repeat=2):
        if b == rec_chi[a]:
            continue
        vec = gre_multiply(G, family[a], family[b])
        laws[a, b] = {(mu, nu): index[y] for y, mu, nu
                      in _two_level_options(vec, k) if y in index}
        if not laws[a, b]:
            raise ConstructionError(
                f"product of members {a},{b} is not two-level on a family "
                f"member")
    shared = set.intersection(*map(set, laws.values()))
    law = next((x for x in laws[min(laws)] if x in shared), None)
    if law is None:
        raise ConstructionError("no globally consistent (mu, nu)")
    mu, nu = law
    psi = {pair: readings[law] for pair, readings in laws.items()}

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

@dataclass
class Example2Result:
    system: LinkedSystem
    associate: FiniteGroup
    U: FiniteGroup
    phi: GroupIsomorphism
    product_group: FiniteGroup
    partition: SRingPartition
    scheme: SchemeTable
    detection: DetectionResult

    @property
    def expected_params(self) -> HigmanianParams:
        L = self.system
        return HigmanianParams(
            f=L.w + 1, m=L.n * L.lam, n=L.n, k=L.n * L.lam * (L.n - 1),
            t=(L.n - 1) * (L.w - 1) * L.nu)


def _same_group(a: FiniteGroup, b: FiniteGroup) -> bool:
    return a.order == b.order and bool((a.mul == b.mul).all())


def example2_construct(system: LinkedSystem, U: FiniteGroup | None = None,
                       phi: GroupIsomorphism | None = None) -> Example2Result:
    """Rank-5 partition of G x U from a closed linked system of semiregular
    RDSs; validates the S-ring and the detected parameters.

    U defaults to the associate group itself with the identity indexing as
    phi; any other U of order w+1 needs (or finds) an isomorphism to it.
    """
    if system.k != system.m:
        raise ConstructionError("recipe needs semiregular members (k = m)")
    winf = associate_group(system)
    if U is None:
        U = winf
    if U.order != winf.order:
        raise ConstructionError("|U| must be w + 1")
    if phi is None:
        if _same_group(U, winf):
            phi = GroupIsomorphism(U, winf, tuple(range(U.order)))
        else:
            phi = next(iter(isomorphisms(U, winf)), None)
            if phi is None:
                raise ConstructionError(
                    "U is not isomorphic to the associate group")
    if phi.source is not U or not _same_group(phi.target, winf):
        raise ConstructionError("phi must map U to the associate group")

    G = system.group
    uname = U.name if U.name and not U.name.startswith("assoc:") else "assoc"
    P = direct_product(G, U, name=f"Prod:{G.name},{uname}")
    nu_ = U.order

    def idx(g: int, u: int) -> int:
        return g * nu_ + u

    e = P.identity
    N = system.forbidden
    t0 = (e,)
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
    partition = SRingPartition(group=P, parts=parts)
    scheme = partition.scheme()
    det = detect_higmanian(scheme)
    if not det:
        raise ConstructionError(
            f"partition is not Higmanian: {det.reason}")
    result = Example2Result(system=system, associate=winf, U=U, phi=phi,
                            product_group=P, partition=partition,
                            scheme=scheme, detection=det)
    want = result.expected_params
    if det.params != want and det.alt_params != want:
        raise ConstructionError(
            f"detected parameters {det.params} differ from expected {want}")
    return result


def cayley_isomorphic(phi1: GroupIsomorphism, phi2: GroupIsomorphism,
                      system: LinkedSystem) -> GroupIsomorphism:
    """The automorphism of G x U fixing G and twisting U by phi2^-1 phi1;
    verified to map the first partition's parts onto the second's."""
    res1 = example2_construct(system, U=phi1.source, phi=phi1)
    res2 = example2_construct(system, U=phi2.source, phi=phi2)
    if phi1.source is not phi2.source:
        raise ConstructionError("both isomorphisms must share the same U")
    U = phi1.source
    twist = phi2.inverse().compose(phi1)
    P = res1.product_group
    mapping = [0] * P.order
    for g in range(system.group.order):
        for u in range(U.order):
            mapping[g * U.order + u] = g * U.order + twist(u)
    iso = GroupIsomorphism(P, P, tuple(mapping))
    for part1, part2 in zip(res1.partition.parts, res2.partition.parts):
        image = {mapping[x] for x in part1}
        if image != set(part2):
            raise ConstructionError(
                "twisted automorphism does not map parts to parts")
    return iso


# -- searches ----------------------------------------------------------------------

def search_semiregular_rds(G: FiniteGroup, N: Subgroup,
                           max_space: int = SEARCH_SPACE_CAP) -> list[tuple[int, ...]]:
    """All transversals of N whose differences avoid N^# and cover G \\ N
    with constant multiplicity, sorted.

    Exhaustive, one coset of N per level: a block of partial transversals
    (their chosen elements and difference counts) is extended by every
    element of the next coset at once, and the rows whose counts stay 0 on
    N and at most lam elsewhere are kept.  Blocks are searched depth first
    and hold at most ``_BLOCK_CELLS`` counts once extended, so memory is
    bounded by the number of levels times the block size, not by the width
    of a level.  ``max_space`` still caps n^m.
    """
    n = N.order
    m = G.order // n
    if n ** m > max_space:
        raise ConstructionError(
            f"search space {n}^{m} exceeds cap {max_space}")
    if m % n:
        return []
    order = G.order
    mul, inv = G.mul, G.inv
    cap = np.full(order, m // n, dtype=np.int32)
    cap[list(N.elements)] = 0
    blocks = np.array(cosets(G, N))  # row i: the i-th coset of N
    rows = max(1, _BLOCK_CELLS // (n * order))
    offsets = np.arange(0, rows * n * order, order)[:, None]
    # before the cap test a count is at most lam + 2m <= 3 * GROUP_ORDER_LIMIT
    # (lam = m when N is trivial): beyond int16, well inside int32
    stack = [(np.zeros((1, 0), dtype=np.intp),
              np.zeros((1, order), dtype=np.int32))]
    found: list[tuple[int, ...]] = []
    while stack:
        chosen, counts = stack.pop()
        level = chosen.shape[1]
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
        if level + 1 == m:
            found.extend(map(tuple, np.sort(chosen, axis=1).tolist()))
            continue
        new = new[keep]
        for lo in range(0, len(chosen), rows):
            stack.append((chosen[lo:lo + rows], new[lo:lo + rows]))
    return sorted(found)


def _close(G: FiniteGroup, w: int, k: int, rds_set: set, cache: dict,
           fam: frozenset) -> frozenset | None:
    """Close a family of RDSs (frozensets) under inverses and product
    images, depth first over the viable images; None when it exceeds w
    members or some product has no viable image."""
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
        vec = _product_vector(G, cache, tuple(sorted(a)), tuple(sorted(b)))
        opts = [y for y, _, _ in _two_level_options(vec, k)]
        if not opts:
            return None
        if any(y in fam for y in opts):
            continue
        viable = [y for y in opts if y in rds_set]
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
                         max_space: int = SEARCH_SPACE_CAP,
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
        rds_list = search_semiregular_rds(G, N, max_space)
    if not rds_list:
        return None
    rds_set = {frozenset(s) for s in rds_list}
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

def _family_setup(family: str, q: int | None, r: int | None, j: int | None):
    if family == "q8cp":
        if r is None or r < 1:
            raise ConstructionError("q8cp needs r >= 1")
        return None
    if family == "heis":
        if q is None or r is None or r < 1:
            raise ConstructionError("heis needs q and r")
        check_order(q, 2 * r + 1)
        p, _ = prime_power(q)
        if p == 2:
            raise ConstructionError("heis family needs odd q")
        return None
    if family == "ea":
        if q is None or r is None or j is None:
            raise ConstructionError("ea needs q, r and j")
        check_order(q, 2 * r + 1)
        p, i = prime_power(q)
        if j < 1 or j > i:
            raise ConstructionError("ea needs 1 <= j <= i")
        if p ** j < 3:
            raise ConstructionError(
                f"w = p^j - 1 = {p ** j - 1} < 2: no linked system")
        return None
    raise ConstructionError(f"unknown family {family!r}")


def table1_params(family: str, q: int | None = None, r: int | None = None,
                  j: int | None = None) -> tuple[int, ...]:
    """Closed-form linked-system parameters (m, n, k, lam, w, mu, nu)."""
    _family_setup(family, q, r, j)
    if family == "q8cp":
        q = 2
    p, _ = prime_power(q)
    m = q ** (2 * r)
    lam = q ** (2 * r - 1)
    if family == "q8cp":
        return (m, 2, m, lam, 2,
                lam - 2 ** r + 2 ** (r - 1), lam + 2 ** (r - 1))
    if family == "heis":
        return (m, q, m, lam, q,
                lam - q ** r + q ** (r - 1), lam + q ** (r - 1))
    return (m, q, m, lam, p ** j - 1,
            lam + q ** r - q ** (r - 1), lam - q ** (r - 1))


def table2_params(family: str, q: int | None = None, r: int | None = None,
                  j: int | None = None) -> HigmanianParams:
    """Closed-form Higmanian parameters of the constructed Cayley scheme."""
    t1 = table1_params(family, q, r, j)
    _, n, _, lam, w, _, nu = t1
    t = (n - 1) * (w - 1) * nu
    if family == "q8cp":
        params = HigmanianParams(f=3, m=4 ** r, n=2, k=4 ** r,
                                 t=2 ** (r - 1) * (2 ** r + 1))
    elif family == "heis":
        params = HigmanianParams(f=q + 1, m=q ** (2 * r), n=q,
                                 k=q ** (2 * r) * (q - 1),
                                 t=q ** (r - 1) * (q - 1) ** 2 * (q ** r + 1))
    else:
        p, _ = prime_power(q)
        params = HigmanianParams(f=p ** j, m=q ** (2 * r), n=q,
                                 k=q ** (2 * r) * (q - 1),
                                 t=q ** (r - 1) * (q - 1) * (q ** r - 1)
                                   * (p ** j - 2))
    if params.t != t:
        raise ConstructionError(
            f"table formula t = {params.t} violates t = (n-1)(w-1)nu = {t}")
    return params


@dataclass
class FamilyConstruction:
    family: str
    q: int | None
    r: int | None
    j: int | None
    group: FiniteGroup
    forbidden: Subgroup
    system: LinkedSystem
    table1_expected: tuple[int, ...]
    table1_match: bool
    associate: FiniteGroup
    associate_expected_spec: str
    associate_match: bool
    result: Example2Result
    table2_expected: HigmanianParams
    table2_match: bool


def construct_family(family: str, q: int | None = None, r: int | None = None,
                     j: int | None = None,
                     max_space: int = SEARCH_SPACE_CAP) -> FamilyConstruction:
    """End-to-end pipeline: build the group, search RDSs and a linked system,
    build the associate group and the Cayley scheme, compare with the
    closed-form parameter tables."""
    _family_setup(family, q, r, j)
    if family == "q8cp":
        G = build_family(f"Q8cp:{r}")
        candidates = [G.center()]
        w = 2
        assoc_spec = "C:3"
    elif family == "heis":
        G = build_family(f"Heis:{q}:{r}")
        candidates = [G.center()]
        w = q
        assoc_spec = f"C:{q + 1}"
    else:
        p, i = prime_power(q)
        G = build_family(f"EA:{p}:{i * (2 * r + 1)}")
        if i == 1:
            candidates = [H for H in G.cyclic_subgroups() if H.order == q]
        else:
            candidates = []
        w = p ** j - 1
        assoc_spec = f"EA:{p}:{j}"
        if not candidates:
            raise ConstructionError(
                f"no forbidden-subgroup candidates of order {q}")

    t1 = table1_params(family, q, r, j)
    system = None
    forbidden = None
    for N in candidates:
        rds = search_semiregular_rds(G, N, max_space)
        if not rds:
            continue
        found = search_linked_system(G, N, w, rds_list=rds,
                                     mu_nu=(t1[5], t1[6]))
        if found is not None:
            system, forbidden = found, N
            break
    if system is None:
        raise ConstructionError(
            f"no closed linked system of size {w} found in {G.name}")

    assoc = associate_group(system)
    expected_assoc = build_family(assoc_spec)
    phi = next(iter(isomorphisms(expected_assoc, assoc)), None)
    if phi is not None:
        # using the named family group as U keeps the product group's spec
        # parseable for partition files; the choice of phi is immaterial
        result = example2_construct(system, U=expected_assoc, phi=phi)
    else:
        result = example2_construct(system)
    t2 = table2_params(family, q, r, j)
    return FamilyConstruction(
        family=family, q=q, r=r, j=j, group=G, forbidden=forbidden,
        system=system, table1_expected=t1, table1_match=system.params == t1,
        associate=assoc, associate_expected_spec=assoc_spec,
        associate_match=phi is not None,
        result=result, table2_expected=t2,
        table2_match=result.detection.params == t2)


def example1_desk_constructions() -> list[Example1Result]:
    """The desk-scale recipe-1 instances used by the cross-agreement suite."""
    out = []
    c4 = build_family("C:4")
    out.append(example1_construct(c4, c4.subgroup([0, 2]), (0, 1)))
    e9 = build_family("EA:3:2")
    n = e9.subgroup([0, 1, 2])
    rds = search_semiregular_rds(e9, n)
    out.append(example1_construct(e9, n, rds[0]))
    return out


# -- file formats ---------------------------------------------------------------------

def _require_rebuildable(G: FiniteGroup) -> None:
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


def write_linked_system(system: LinkedSystem, path) -> None:
    """Text format: group spec line, forbidden-subgroup elements, w, then the
    RDS element lists (chi and psi are recovered on read)."""
    _require_rebuildable(system.group)
    lines = [system.group.name,
             " ".join(str(x) for x in system.forbidden.elements),
             str(system.w)]
    lines += [" ".join(str(x) for x in s) for s in system.sets]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _int_line(line: str, what: str) -> list[int]:
    try:
        return [int(tok) for tok in line.split()]
    except ValueError:
        raise FileFormatError(f"{what}: non-integer token") from None


def read_linked_system(path) -> LinkedSystem:
    with open(path) as fh:
        lines = [ln for ln in (l.strip() for l in fh) if ln]
    if len(lines) < 4:
        raise FileFormatError("linked-system file too short")
    G = build_family(lines[0])
    N = G.subgroup(_int_line(lines[1], "subgroup line"))
    try:
        w = int(lines[2])
    except ValueError:
        raise FileFormatError("bad w line") from None
    if len(lines) != 3 + w:
        raise FileFormatError(f"expected {w} RDS lines, found {len(lines) - 3}")
    sets = [_int_line(ln, f"RDS line {i + 1}") for i, ln in enumerate(lines[3:])]
    return verify_linked_system(G, N, sets)


def write_partition(partition: SRingPartition, path) -> None:
    """Text format: group spec line, then one part per line."""
    _require_rebuildable(partition.group)
    lines = [partition.group.name]
    lines += [" ".join(str(x) for x in p) for p in partition.parts]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_partition(path) -> SRingPartition:
    with open(path) as fh:
        lines = [ln for ln in (l.strip() for l in fh) if ln]
    if len(lines) < 2:
        raise FileFormatError("partition file too short")
    G = build_family(lines[0])
    parts = tuple(tuple(_int_line(ln, f"part line {i + 1}"))
                  for i, ln in enumerate(lines[1:]))
    return SRingPartition(group=G, parts=parts)
