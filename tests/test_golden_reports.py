"""Golden digests of whole CLI reports.

Each case runs ``cli.main`` and hashes its JSON report with
``timing_seconds`` removed.  The first digests were recorded with the
entry-by-entry elimination loop, rows eliminated in the given order and a
Chevalley-Eilenberg builder that summed ``Fraction``s, and each later case
before the change it guards (the largest blocks and the third conjugate
with the bottom-up ``CohomologySpace``); a faster path must reproduce them,
so any change of a Betti number, representative, kernel vector or entry
formatting shows here.

The three gl(3) conjugates are built here from a seeded change of basis
P = U Pi, U unipotent on the whole first superdiagonal, as in the
benchmark's ``rational`` workload.  Run as a script, this module writes
the document of one conjugate:

    python tests/test_golden_reports.py SEED PATH
"""

import hashlib
import json
import random
import sys
from fractions import Fraction

import pytest

ENTRY_VALUES = tuple(Fraction(p, q) for p, q in ((1, 2), (-1, 2), (2, 3), (-2, 3), (3, 2), (-3, 2)))


def _inverse(p):
    """The inverse of an invertible square matrix of Fractions."""
    n = len(p)
    m = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(p)]
    for c in range(n):
        piv = next(r for r in range(c, n) if m[r][c])
        m[c], m[piv] = m[piv], m[c]
        m[c] = [x / m[c][c] for x in m[c]]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return [row[n:] for row in m]


def gl3_conjugate_document(seed):
    """The algebra file of gl(3) in the basis f_j = sum_a P[a][j] E_a."""
    n, dim = 3, 9
    rng = random.Random(seed)
    u = [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]
    for i in range(dim - 1):
        u[i][i + 1] = rng.choice(ENTRY_VALUES)
    perm = list(range(dim))
    rng.shuffle(perm)
    p = [[u[i][perm[j]] for j in range(dim)] for i in range(dim)]
    p_inv = _inverse(p)

    def as_matrix(j):
        return [[p[a * n + b][j] for b in range(n)] for a in range(n)]

    def product(x, y):
        return [[sum((x[a][c] * y[c][b] for c in range(n)), Fraction(0)) for b in range(n)] for a in range(n)]

    brackets = []
    for i in range(dim):
        for j in range(i + 1, dim):
            x, y = as_matrix(i), as_matrix(j)
            xy, yx = product(x, y), product(y, x)
            v = [xy[a][b] - yx[a][b] for a in range(n) for b in range(n)]
            for k in range(dim):
                coeff = sum((p_inv[k][m] * v[m] for m in range(dim)), Fraction(0))
                if coeff:
                    brackets.append([i, j, k, str(coeff)])
    return {"dim": dim, "basis": [f"f{i + 1}" for i in range(dim)], "brackets": brackets}


def report_digest(capsys, argv):
    from liecoh.cli import main

    code = main(list(argv))
    report = json.loads(capsys.readouterr().out)
    assert code == 0, report
    report.pop("timing_seconds")
    return hashlib.sha256(json.dumps(report, indent=2).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("seed, digest", [
    (1, "b2a6844d8df6a345665d3124cdcfc91839b1a87c5b1186869db5426046a1ef1c"),
    (2, "5f4d853872896af9c31cadf3303783b03d8d4a5fd924339d6ebc1a2ad393b5d7"),
    (3, "32d5cdc5cec95be8979896b55ba05ec1e9655c7b67c4de253504c2050a6098a4"),
])
def test_betti_representatives_of_gl3_conjugates(capsys, tmp_path, seed, digest):
    path = tmp_path / f"gl3_conjugate_{seed}.json"
    path.write_text(json.dumps(gl3_conjugate_document(seed), indent=1) + "\n", encoding="utf-8")
    assert report_digest(capsys, ["betti", "--file", str(path), "--representatives"]) == digest


def test_koszul_kernel_and_matrix_of_gl3_so3(capsys):
    argv = ["koszul", "--builtin", "gl:3", "--sub", "so:3", "--kernel", "--matrix"]
    assert report_digest(capsys, argv) == "ef340cb24d2b42a17023ce6bb10948ca98997eae50f8628f5029f35ff81f7d46"


@pytest.mark.parametrize("argv, digest", [
    ("classes --builtin gl:4 --sub so:4",
     "1a977c0f7eecbe506e3164775f99303a3cd2d0f9fe49a25b8c79f39848a39bc6"),
    ("classes --builtin gl:3 --sub so:3",
     "8105086ce2ecf261cd42501e1f8285e99d693bcd9ca001fe22016e82a982048f"),
    ("koszul --builtin so:5 --sub so:3 --kernel --matrix --factor-check",
     "fa2c75de90e670290b7f9e08fd23551687edf55b1cb00be5f31cb8727c87801d"),
    ("betti --builtin gl:4 --relative so:4 --representatives",
     "c6598cb9011a31f9a716495b178f1aa682d9c8d111f092cb296b05cbb8a8cb64"),
    ("classes --builtin gl:5 --sub so:5",
     "ce5918ffd953e049fab339ac652d1466e94f9cdd17f60783c75e7d13a0c7c797"),
])
def test_relative_model_and_generator_reports(capsys, argv, digest):
    """Generators, kernel forms and relative representatives, which pass
    through the relative models' embeddings and the generator search."""
    assert report_digest(capsys, argv.split()) == digest


@pytest.mark.parametrize("argv, digest", [
    ("betti --builtin so:6 --representatives",
     "a50291967087d257d8f2eabacbf3e874809b0f2cd2919e243f22a4f8fea892f4"),
    ("betti --builtin gl:4 --representatives",
     "15361382e70df5ee482331e19b4adc0aac6df9c43e5b5d9b8e98cf21c464f780"),
    ("koszul --builtin gl:3 --sub so:2 --kernel --matrix --factor-check",
     "966fee0701347e4c066909637ffdaaff434989c890c4b905952c85fcdcd124c3"),
])
def test_largest_blocks_and_a_nonzero_kernel(capsys, argv, digest):
    """The largest weight-zero blocks, and a Koszul map with a kernel, whose
    induced maps reduce through the reducers built on first use."""
    assert report_digest(capsys, argv.split()) == digest


def _units(dim, positions):
    return [[int(i == p) for i in range(dim)] for p in positions]


@pytest.mark.parametrize("algebra, vectors, digest", [
    # the Borel {H1, E12} of sl(2)
    ("sl:2", _units(3, (0, 1)),
     "4c3e73a05951b66d593daea0b5b1c9cbd37bbd2275336f37a5a3e13ac9931ec4"),
    # the upper-triangular Borel {E11, E12, E13, E22, E23, E33} of gl(3)
    ("gl:3", _units(9, (0, 1, 2, 4, 5, 8)),
     "63c7f99510f35315c19ea7b47194b6b2175742f70fb6d8e9d6a0045e1ee235ba"),
])
def test_reductive_certificates_of_borel_subalgebras(capsys, tmp_path, algebra, vectors, digest):
    """No h-equivariant projection exists, so the report carries the
    certificate of infeasibility that the exact solve returns."""
    path = tmp_path / "borel.json"
    path.write_text(json.dumps({"vectors": vectors}) + "\n", encoding="utf-8")
    assert report_digest(capsys, ["reductive", "--builtin", algebra, "--sub-file", str(path)]) == digest


@pytest.mark.parametrize("argv, digest", [
    ("reductive --builtin gl:3 --sub so:3",
     "c5976299fd04d2ef1e4978309cc8b351116fcbf8b84619564b8000bd1249d97e"),
    ("ncz --builtin so:5 --sub so:3",
     "7048204a6a56e6574531a1c89a953253115c40d5ef32a68bcb742bdf57c1dc35"),
])
def test_invariant_complement_and_ncz_preimages(capsys, argv, digest):
    """An invariant complement and the preimages of H(h) in H(g), both read
    off exact solves."""
    assert report_digest(capsys, argv.split()) == digest


if __name__ == "__main__":
    with open(sys.argv[2], "w", encoding="utf-8") as fh:
        fh.write(json.dumps(gl3_conjugate_document(int(sys.argv[1])), indent=1) + "\n")
