"""Workload command lists, generated inputs and the exact-answer oracle.

Every expected value below comes from the mathematics the README, the
acceptance suite and the ROADMAP state, never from running the program:

* H(gl(3)) is an exterior algebra on generators of degrees 1, 3, 5, and
  H(so(5)) one on degrees 3, 7 (exponents of B2), H(so(3)) one on degree 3.
* H(so(5), so(3)) is the rational cohomology of the Stiefel manifold
  SO(5)/SO(3), that of S^7; H(gl(3), so(3)) = {0:1, 1:1, 5:1, 6:1}
  (README); H(gl(4), so(4)) = {0:1, 1:1, 4:1, 5:2, 6:1, 9:1, 10:1}
  (ROADMAP), an exterior algebra on generators of degrees 1, 4, 5, which
  the documented labelling (odd degree 4k-3 -> y_(2k-1), even degree d ->
  y_d) names y1, y4, y3.
* (gl(3), so(3)) and (so(5), so(3)) have injective characteristic maps and
  satisfy n.c.z.; (so(5), so(3)) is reductive.
* A change of basis preserves Betti numbers, so every ``rational`` input has
  the Betti numbers of gl(3).

Each check returns None when the report is right, or a one-line reason.
"""

import json
import random
from fractions import Fraction

WORKLOADS = ("ambient", "rational", "pair", "ring")

GL3_BETTI = {0: 1, 1: 1, 3: 1, 4: 1, 5: 1, 6: 1, 8: 1, 9: 1}
SO5_BETTI = {0: 1, 3: 1, 7: 1, 10: 1}
SO3_BETTI = {0: 1, 3: 1}
SO5_SO3_BETTI = {0: 1, 7: 1}
GL3_SO3_BETTI = {0: 1, 1: 1, 5: 1, 6: 1}

# The trivial command whose start-to-exit time is setup_s.
SETUP_ARGS = ("validate", "--builtin", "abelian:1")

# rational: conjugates per pass, and the change of basis P = U * Pi of each.
# U is unipotent with entries on the whole first superdiagonal of the 9 x 9
# basis matrix.  Such a chain makes U^-1 a full upper triangle, so every
# structure constant mixes many brackets of gl(3) and row reduction meets
# coefficient growth (with disjoint positions, U^-1 = 2I - U stays sparse and
# the constants stay a few bits wide).  The seed draws the entry values; the
# permutation Pi of conjugate i is drawn from the fixed PERMUTATION_SEED,
# because the permutation sets the pivot order, which decides most of a
# conjugate's cost; so the work per seed stays comparable while every seed
# gives other structure constants.  The entry values still move a pass's
# cost by up to a sixth, so every pass of an untraced run draws its own
# values, and the run's figure averages over all its draws.
CONJUGATES = 3
UNIPOTENT_POSITIONS = tuple((i, i + 1) for i in range(8))
PERMUTATION_SEED = 20110601
ENTRY_VALUES = tuple(Fraction(p, q) for p, q in ((1, 2), (-1, 2), (2, 3), (-2, 3), (3, 2), (-3, 2)))


# ---------------------------------------------------------------------------
# exact helpers (Fractions only)
# ---------------------------------------------------------------------------

def rank(rows):
    """Rank of a list of equal-length rational rows."""
    m = [[Fraction(x) for x in r] for r in rows]
    r = 0
    width = len(m[0]) if m else 0
    for c in range(width):
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c] / m[r][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def fmt(x):
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _bits(x):
    x = Fraction(x)
    return max(abs(x.numerator).bit_length(), x.denominator.bit_length())


# ---------------------------------------------------------------------------
# generated inputs
# ---------------------------------------------------------------------------

def gl_brackets(n):
    """[E_ab, E_cd] = d_bc E_ad - d_da E_cb, basis E_ab row-major; full antisymmetric table."""
    dim = n * n
    table = {}
    for i in range(dim):
        a, b = divmod(i, n)
        for j in range(dim):
            c, d = divmod(j, n)
            out = {}
            if b == c:
                out[a * n + d] = out.get(a * n + d, 0) + 1
            if d == a:
                out[c * n + b] = out.get(c * n + b, 0) - 1
            out = {k: Fraction(v) for k, v in out.items() if v}
            if out:
                table[(i, j)] = out
    return table


def _invert(p):
    n = len(p)
    m = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(p)]
    for c in range(n):
        piv = next(r for r in range(c, n) if m[r][c])
        m[c], m[piv] = m[piv], m[c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return [row[n:] for row in m]


def conjugate_gl(n, rng, perm_rng):
    """gl(n) in the basis f_j = sum_i P[i][j] E_i with P = U * Pi.

    U is unipotent upper triangular with entries from ENTRY_VALUES, drawn
    with ``rng``, at UNIPOTENT_POSITIONS; Pi is a permutation drawn with
    ``perm_rng``.  Returns the algebra-file document.
    """
    dim = n * n
    u = [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]
    for i, j in UNIPOTENT_POSITIONS:
        u[i][j] = rng.choice(ENTRY_VALUES)
    perm = list(range(dim))
    perm_rng.shuffle(perm)
    p = [[u[i][perm[j]] for j in range(dim)] for i in range(dim)]
    p_inv = _invert(p)
    table = gl_brackets(n)
    cols = [[p[i][j] for i in range(dim)] for j in range(dim)]
    brackets = []
    for i in range(dim):
        for j in range(i + 1, dim):
            v = [Fraction(0)] * dim
            for a, xa in enumerate(cols[i]):
                if not xa:
                    continue
                for b, yb in enumerate(cols[j]):
                    if not yb:
                        continue
                    for k, c in table.get((a, b), {}).items():
                        v[k] += xa * yb * c
            for k in range(dim):
                coeff = sum((p_inv[k][m] * v[m] for m in range(dim) if v[m]), Fraction(0))
                if coeff:
                    brackets.append([i, j, k, fmt(coeff)])
    return {"dim": dim, "basis": [f"f{i + 1}" for i in range(dim)], "brackets": brackets}


def rational_inputs(seed, pass_index=0):
    """The algebra documents of pass ``pass_index`` of a ``rational`` run, with their statistics.

    The entry values come from (seed, pass_index), so the same seed gives
    the same inputs pass by pass.
    """
    rng = random.Random(f"{seed}/{pass_index}")
    perm_rng = random.Random(PERMUTATION_SEED)
    docs = [conjugate_gl(3, rng, perm_rng) for _ in range(CONJUGATES)]
    stats = [
        {"brackets": len(d["brackets"]),
         "max_constant_bits": max(_bits(Fraction(b[3])) for b in d["brackets"])}
        for d in docs
    ]
    return docs, stats


def block_morphism():
    """The block inclusion (gl(2), so(2)) -> (gl(3), so(3)) as a morphism document."""
    ones = {(a * 3 + b, a * 2 + b) for a in range(2) for b in range(2)}
    return {
        "source": {"builtin": "gl:2", "sub": "so:2"},
        "target": {"builtin": "gl:3", "sub": "so:3"},
        "matrix": [["1" if (r, c) in ones else "0" for c in range(4)] for r in range(9)],
    }


# ---------------------------------------------------------------------------
# the oracle
# ---------------------------------------------------------------------------

def _betti(d):
    return {int(k): v for k, v in d.items()}


def _expect(cond, why):
    return None if cond else why


def check_validate(dim):
    def check(result):
        return _expect(result.get("valid") is True and result.get("dim") == dim,
                       f"expected a valid algebra of dimension {dim}")
    return check


def check_betti_reps(expected):
    def check(result):
        if _betti(result["betti"]) != expected:
            return f"betti {result['betti']} != {expected}"
        reps = result["representatives"]
        for k, b in expected.items():
            forms = reps.get(str(k), [])
            if len(forms) != b or any(f["degree"] != k or not f["terms"] for f in forms):
                return f"representatives in degree {k} do not match betti {b}"
        return None if len(reps) == len(expected) else "representatives in a zero degree"
    return check


def check_koszul(source, target, top, matrix=False):
    def check(result):
        if result["injective"] is not True:
            return "expected an injective characteristic map"
        if _betti(result["betti_source"]) != source or _betti(result["betti_target"]) != target:
            return "betti numbers of source or target differ"
        fac = result.get("factorization", {})
        if fac.get("holds") is not True or fac.get("degrees") != list(range(top + 1)):
            return "factorization check missing or incomplete"
        if matrix:
            if result.get("kernel") != []:
                return "expected an empty kernel"
            maps = result["map"]
            if sorted(maps, key=int) != [str(k) for k in range(top + 1)]:
                return "map degrees differ"
            for k in range(top + 1):
                m = maps[str(k)]
                rows, cols = target.get(k, 0), source.get(k, 0)
                if len(m) != rows or any(len(r) != cols for r in m):
                    return f"map in degree {k} has the wrong shape"
                if cols and rank([[Fraction(x) for x in r] for r in m]) != cols:
                    return f"map in degree {k} is not injective"
        return None
    return check


def check_ncz(ambient, sub):
    def check(result):
        if result["ncz"] is not True:
            return "expected n.c.z. to hold"
        want = {str(k): {"rank": b, "betti_sub": b} for k, b in sub.items()}
        if result["degrees"] != want:
            return f"ncz degrees {result['degrees']} != {want}"
        for k, b in sub.items():
            vecs = result["witnesses"].get(str(k), [])
            if len(vecs) != b or any(len(v) != ambient.get(k, 0) for v in vecs):
                return f"witnesses in degree {k} have the wrong shape"
        return None
    return check


def _so_basis(n):
    return [(a, b) for a in range(n) for b in range(a + 1, n)]


def _so_bracket(n, x, y):
    """Bracket of two so(n) coordinate vectors (basis A_ab = E_ab - E_ba, a < b)."""
    pairs = _so_basis(n)

    def mat(v):
        m = [[Fraction(0)] * n for _ in range(n)]
        for (a, b), c in zip(pairs, v):
            m[a][b] += c
            m[b][a] -= c
        return m

    mx, my = mat(x), mat(y)
    z = [[sum(mx[i][k] * my[k][j] - my[i][k] * mx[k][j] for k in range(n)) for j in range(n)]
         for i in range(n)]
    return [z[a][b] for a, b in pairs]


def check_reductive_so(n, k):
    """so(k) upper-left block in so(n): the complement must be an invariant one."""
    pairs = _so_basis(n)
    sub = []
    for pair in _so_basis(k):
        v = [Fraction(0)] * len(pairs)
        v[pairs.index(pair)] = Fraction(1)
        sub.append(v)

    def check(result):
        if result.get("reductive") is not True or result.get("witness") != "invariant-complement":
            return "expected an invariant-complement witness"
        comp = [[Fraction(x) for x in v] for v in result["complement"]]
        q = len(pairs) - len(sub)
        if len(comp) != q or rank(comp) != q or rank(comp + sub) != len(pairs):
            return "complement does not complete the subalgebra"
        for x in sub:
            for w in comp:
                if rank(comp + [_so_bracket(n, x, w)]) != q:
                    return "complement is not invariant under the subalgebra"
        return None
    return check


def check_functoriality(top):
    def check(result):
        return _expect(result["commutes"] is True and result["degrees"] == list(range(top + 1)),
                       "naturality square not verified in every degree")
    return check


def check_classes(expected):
    def check(result):
        got = [(g["degree"], g["label"]) for g in result["generators"]]
        if got != expected:
            return f"generators {got} != {expected}"
        if any(g["form"]["degree"] != g["degree"] or not g["form"]["terms"]
               for g in result["generators"]):
            return "generator form has the wrong degree or is zero"
        return _expect(result["presentation"] == "exterior-algebra", "expected an exterior algebra")
    return check


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def commands(workload, seed, work_dir, pass_index=0):
    """(argv, check) pairs of one pass, plus input statistics, writing input files.

    ``work_dir`` is relative to the repository root, where the commands run.
    Only ``rational`` depends on ``pass_index``: each pass gets its own draw.
    """
    if workload == "ambient":
        return [
            (["betti", "--builtin", "so:5", "--representatives"], check_betti_reps(SO5_BETTI)),
            (["betti", "--builtin", "gl:3", "--representatives"], check_betti_reps(GL3_BETTI)),
        ], []
    if workload == "rational":
        docs, stats = rational_inputs(seed, pass_index)
        out = []
        for i, doc in enumerate(docs):
            path = f"{work_dir}/gl3_conjugate_{i}.json"
            raw = json.dumps(doc, indent=1) + "\n"
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(raw)
            stats[i]["file"] = path
            out.append((["betti", "--file", path, "--representatives"], check_betti_reps(GL3_BETTI)))
            out.append((["validate", "--file", path], check_validate(9)))
        return out, stats
    if workload == "pair":
        path = f"{work_dir}/block_gl2_gl3.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(block_morphism(), fh)
        return [
            (["koszul", "--builtin", "so:5", "--sub", "so:3", "--factor-check"],
             check_koszul(SO5_SO3_BETTI, SO5_BETTI, 7)),
            (["koszul", "--builtin", "gl:3", "--sub", "so:3", "--kernel", "--matrix", "--factor-check"],
             check_koszul(GL3_SO3_BETTI, GL3_BETTI, 6, matrix=True)),
            (["ncz", "--builtin", "so:5", "--sub", "so:3"], check_ncz(SO5_BETTI, SO3_BETTI)),
            (["reductive", "--builtin", "so:5", "--sub", "so:3"], check_reductive_so(5, 3)),
            (["functoriality", "--morphism", path], check_functoriality(6)),
        ], []
    if workload == "ring":
        return [
            (["classes", "--builtin", "gl:4", "--sub", "so:4"],
             check_classes([(1, "y1"), (4, "y4"), (5, "y3")])),
            (["classes", "--builtin", "gl:3", "--sub", "so:3"],
             check_classes([(1, "y1"), (5, "y3")])),
        ], []
    raise ValueError(f"unknown workload {workload!r}")

