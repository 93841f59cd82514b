"""Permutation groups that the tests and the parity corpus of
tools/parity.py share, each built once, as cycle strings in the notation of
the command line and of PermGens.from_cycles: points 1-based, one string
per generator, and "perm:" + ";".join(gens) for a spec.

Standard library only, and nothing from noethercheck, so that what a
family is does not depend on the program it checks. The tests find this
module through tests/conftest.py, which puts tools/ on sys.path; a script
in tools/ finds it beside itself.
"""

from __future__ import annotations


def cycle(first: int, n: int) -> str:
    """The n-cycle (first first+1 ... first+n-1)."""
    return "(" + " ".join(str(first + i) for i in range(n)) + ")"


def cycle_string(perm: list[int], shift: int = 0) -> str:
    """perm on 0..n-1 in 1-based cycle notation, its points moved up by shift."""
    seen, out = set(), []
    for i in range(len(perm)):
        if i in seen or perm[i] == i:
            continue
        cyc, j = [], i
        while j not in seen:
            seen.add(j)
            cyc.append(str(j + 1 + shift))
            j = perm[j]
        out.append("(" + " ".join(cyc) + ")")
    return "".join(out) or "()"


def perm_spec(gens: list[str]) -> str:
    """The group spec of the command line for these generators."""
    return "perm:" + ";".join(gens)


def regular(
    a: int, b: int, c: int, r: int, odd: tuple[int, ...] = (), carried: bool = False, shift: int = 0
) -> list[str]:
    """<s, t | s**a, t**b = s**c, t*s*t**-1 = s**r> acting on its a*b
    elements s**i * t**j, numbered 1 + shift + i + a*j, by right
    multiplication: the generators s and t, then one cycle of each length
    in odd on the points after, each a generator of its own or, if carried,
    carried by s. The product is direct when the lengths are prime to a*b."""

    def mult(x, y):
        (i1, j1), (i2, j2) = x, y
        i, j = i1 + i2 * pow(r, j1, a), j1 + j2
        if j >= b:
            i, j = i + c, j - b
        return i % a, j

    elems = [(i, j) for j in range(b) for i in range(a)]
    gens = [
        cycle_string([k + a * m for k, m in (mult(x, g) for x in elems)], shift)
        for g in ((1 % a, 0), (0, 1 % b))
    ]
    first = shift + a * b + 1
    for n in odd:
        if carried:
            gens[0] += cycle(first, n)
        else:
            gens.append(cycle(first, n))
        first += n
    return gens


# (a, b, c, r) of the groups of order 16 with a metacyclic presentation:
# the six with an element of order 8, and two without
ORDER_16 = {
    "Q16": (8, 2, 4, 7),
    "D16": (8, 2, 0, 7),
    "SD16": (8, 2, 0, 3),
    "C16": (16, 1, 0, 1),
    "C8xC2": (8, 2, 0, 1),
    "M16": (8, 2, 0, 5),
    "C4:C4": (4, 4, 0, 3),
    "C4xC4": (4, 4, 0, 1),
}


def cyclic_product(orders) -> list[str]:
    """C_m1 x C_m2 x ... as one cycle per factor, on consecutive points
    from 1."""
    gens, first = [], 1
    for m in orders:
        gens.append(cycle(first, m))
        first += m
    return gens


# C8xC8, C16xC8xC4, C32xC8xC8 and C4xC4: no catalog group has two
# invariant 2-exponents >= 3, so the first three are what take bailey_e
# above 1; C4xC4 has two below 3
CYCLIC_PRODUCTS = ((8, 8), (16, 8, 4), (32, 8, 8), (4, 4))


def giants(n: int) -> dict[str, list[str]]:
    """S_n and A_n on the points 1..n, n >= 5, from four generating sets:
    a transposition and an n-cycle (S_n); a 3-cycle and an n-cycle, or an
    (n - 1)-cycle, of which the odd one gives S_n and the even one A_n; and
    the n - 1 adjacent transpositions (S_n). For n >= 8 a fifth, the
    5-cycle (1 2 3 4 5) and an n-cycle, gives S_n for even n and A_n for
    odd n, since the 5-cycle is even and the n-cycle odd iff n is even."""
    sets = {
        "transposition": ["(1 2)", cycle(1, n)],
        "3-cycle, n-cycle": ["(1 2 3)", cycle(1, n)],
        "3-cycle, (n-1)-cycle": ["(1 2 3)", cycle(2, n - 1)],
        "adjacent": [f"({i} {i + 1})" for i in range(1, n)],
    }
    if n >= 8:
        sets["5-cycle, n-cycle"] = [cycle(1, 5), cycle(1, n)]
    return sets


def sl2(p: int) -> list[str]:
    """SL2(p), for an odd prime p, on the p**2 - 1 nonzero column vectors
    (x, y) of F_p**2, the vector (x, y) the point x + p*y: the cycles of
    [[1, 1], [0, 1]], (x, y) -> (x + y, y), and of [[0, -1], [1, 0]],
    (x, y) -> (-y, x)."""
    vectors = [(x, y) for y in range(p) for x in range(p)][1:]  # point k is vectors[k - 1]
    return [
        cycle_string([(u % p) + p * (v % p) - 1 for u, v in (move(x, y) for x, y in vectors)])
        for move in (lambda x, y: (x + y, y), lambda x, y: (-y, x))
    ]


def sl2_facts(p: int) -> tuple[int, tuple[int, ...], int, bool]:
    """The order, abelian invariants, 2-part of the order and Q16 answer of
    SL2(p), p an odd prime: order p(p**2 - 1); perfect for p >= 5, and
    SL2(3) = Q8 : C3 has abelianization C3; the 2-part that of p**2 - 1;
    and its 2-Sylow subgroup is generalized quaternion of order the 2-part
    of p**2 - 1, so Q16 iff that is 16, iff p = 7 or 9 (mod 16)."""
    order = p * (p * p - 1)
    return order, (3,) if p == 3 else (), order & -order, p % 16 in (7, 9)


def _primitive_root(p: int) -> int:
    """The least g whose powers give all p - 1 units mod the prime p."""
    return next(g for g in range(1, p) if len({pow(g, k, p) for k in range(p - 1)}) == p - 1)


def agl1(p: int) -> list[str]:
    """AGL(1, p) = F_p : F_p*, for a prime p, on the points x + 1 for x in
    F_p: the cycles of x -> x + 1 and of x -> g*x, g a primitive root."""
    g = _primitive_root(p)
    return [cycle_string([(x + 1) % p for x in range(p)]), cycle_string([g * x % p for x in range(p)])]


def agl1_facts(p: int) -> tuple[int, tuple[int, ...], int, bool]:
    """The facts of AGL(1, p), p an odd prime, in the order of sl2_facts:
    order p(p - 1); its derived subgroup is the translations, so the
    abelianization is F_p* = C_(p-1); its 2-Sylow subgroup lies in that
    cyclic group, of the 2-part of p - 1, so it is never Q16."""
    order = p * (p - 1)
    return order, (p - 1,), order & -order, False


def psl2(p: int) -> list[str]:
    """PSL2(p), for a prime p >= 5, on the projective line F_p u {oo}, the
    point x + 1 for x in F_p and p + 1 for oo: the cycles of x -> x + 1 and
    of x -> -1/x, which generate it."""

    def minus_inverse(x):
        return p if x == 0 else 0 if x == p else -pow(x, -1, p) % p

    return [
        cycle_string([(x + 1) % p if x < p else p for x in range(p + 1)]),
        cycle_string([minus_inverse(x) for x in range(p + 1)]),
    ]


def psl2_facts(p: int) -> tuple[int, tuple[int, ...], int, bool]:
    """The facts of PSL2(p), p a prime >= 5: order p(p**2 - 1)/2; simple,
    so perfect; the 2-part half that of p**2 - 1; and its 2-Sylow subgroup
    is dihedral, or Klein four, so it is never Q16."""
    order = p * (p * p - 1) // 2
    return order, (), order & -order, False


def asl2(p: int) -> list[str]:
    """ASL2(p) = F_p**2 : SL2(p), for an odd prime p, on all p**2 column
    vectors (x, y), the vector (x, y) the point x + p*y + 1: the
    translation by (1, 0) and the two generators of sl2(p). SL2(p) moves
    (1, 0) to every nonzero vector, so these give every translation."""
    vectors = [(x, y) for y in range(p) for x in range(p)]
    return [
        cycle_string([(u % p) + p * (v % p) for u, v in (move(x, y) for x, y in vectors)])
        for move in (lambda x, y: (x + 1, y), lambda x, y: (x + y, y), lambda x, y: (-y, x))
    ]


def asl2_facts(p: int) -> tuple[int, tuple[int, ...], int, bool]:
    """The facts of ASL2(p), p an odd prime: order p**3 (p**2 - 1); SL2(p)
    has no fixed nonzero vector, so the translations lie in the derived
    subgroup, and the abelianization is that of SL2(p): trivial for p >= 5
    and C3 at p = 3; the translations have odd order, so the 2-Sylow
    subgroup is that of SL2(p), generalized quaternion of the 2-part of
    p**2 - 1, and Q16 iff that is 16."""
    order = p**3 * (p * p - 1)
    return order, (3,) if p == 3 else (), order & -order, order & -order == 16


# each with a generator one of whose powers is a prime cycle, and none of
# them S_n or A_n, with its order: PSL(2,7) on the 8 points of the
# projective line (a 7-cycle, p = n - 1), PSL(2,5) on 6 points (p = n - 1),
# PSL(2,8) on 9 points (a 7-cycle, p = n - 2), AGL(1,13) = C13:C12 from
# x -> x + 1 and x -> 2x on the points x + 1 for x in F_13 (a 13-cycle,
# p = n), C2 wr C3 from a transposition, S3 wr S2, S5 wr S2 and S7 wr S2
# from a transposition or a 3-, 5- or 7-cycle inside a block of half the
# points (p = n/2 in the last three), and S5 wr S3 from a transposition or
# a 5-cycle inside a block of a third of the points (p = n/3)
TRAPS = {
    "PSL(2,7)": (["(1 2 3 4 5 6 7)", "(1 8)(2 7)(3 4)(5 6)"], 168),
    "PSL(2,5)": (["(1 2 3 4 5)", "(1 6)(2 5)"], 60),
    "PSL(2,8)": (["(2 3 5 4 7 8 6)", "(1 9)(3 6)(4 7)(5 8)", "(1 2)(3 4)(5 6)(7 8)"], 504),
    "AGL(1,13)": ([cycle(1, 13), "(2 3 5 9 4 7 13 12 10 6 11 8)"], 156),
    "C2wrC3": (["(1 2)", "(1 3 5)(2 4 6)"], 24),
    "S3wrS2": (["(1 2 3)", "(1 2)", "(1 4)(2 5)(3 6)"], 72),
    "S5wrS2": (["(1 2)", "(1 2 3 4 5)", "(1 6)(2 7)(3 8)(4 9)(5 10)"], 28800),
    "S7wrS2": (["(1 2)", cycle(1, 7), "(1 8)(2 9)(3 10)(4 11)(5 12)(6 13)(7 14)"], 50803200),
    "S5wrS3": (
        ["(1 2)", cycle(1, 5), "(1 6 11)(2 7 12)(3 8 13)(4 9 14)(5 10 15)", "(1 6)(2 7)(3 8)(4 9)(5 10)"],
        10368000,
    ),
}
