"""Golden corpus: fixed CLI calls whose exit code, stdout and stderr must not change.

``tests/golden/cli_corpus.json`` holds each call's argv with the exit code
and the exact stdout and stderr it produced when the corpus was recorded.
Every call is replayed through ``cli.main`` and compared byte for byte, so a
refactor that changes any canonical JSON output or error message fails here.

To record calls appended to ``CALLS``:

    PYTHONPATH=src python tests/test_golden.py

The recorder rebuilds the corpus in ``CALLS`` order, reusing every stored
entry verbatim and running only the calls that have none, so recording a
new call never accepts a changed output of an old one.  To re-record an
entry after an intended change of output, delete it from the JSON first.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from braidreps.cli import main

CORPUS = Path(__file__).parent / "golden" / "cli_corpus.json"

# Fractional and negative sets with mixed denominators: one point per family
# I3, I4, J5, I6, J6, K6 (each solved for one value), a point with four
# failures scaled by 2/3 and by -2/3, a 3- and a 4-set, and a generic point.
SCAN_FRACTIONS = json.dumps({"grid": [
    ["1/2", "-1/3", "3/4", "5/7", "-2"],
    ["2/3", "-1/5", "4/9", "-10/3", "7/2"],
    ["3/4", "-3", "1/2", "-5/3", "81/20"],
    ["-1/2", "3", "-2/5", "7/4", "5/168"],
    ["2/3", "-3/2", "5", "-1/4", "8/15"],
    ["1/2", "-4/3", "2/5", "5/3", "-7/6"],
    ["-8/3", "2/3", "4/3", "8/3", "-2/3"],
    ["8/3", "-2/3", "-4/3", "-8/3", "2/3"],
    ["1/2", "-1/3", "3/4"],
    ["2/3", "-1/5", "4/9", "-10/3"],
    ["1/2", "-2/3", "5/4", "-7", "3/5"],
]})

CALLS = [
    ["build", "--params", "[1, 2]"],
    ["build", "--params", "[1, 2, 3, 6]"],
    ["build", "--params", "[1, 2, 3, 4]", "--context", "t^2-24"],
    ["build", "--params", "[1, 2, 3, 4, 5]", "--dim", "6"],
    ["build", "--params", "[-4, 1, 2, 4, -1]"],
    ["verify", "--params", "[3]"],
    ["verify", "--params", "[1, 2]"],
    ["verify", "--params", "[1, 2, 3]"],
    ["verify", "--params", "[1, 2, 3, 6]"],
    ["verify", "--params", "[-4, 1, 2, 4, -1]"],
    ["verify", "--params", "[1, 2, 3, 4, 5]", "--dim", "6", "--variant", "2"],
    ["verify", "--params", "[1, 2, 3, 4]", "--context", "t^2-24"],
    ["irred", "--params", "[1, 2, 3]"],
    ["irred", "--params", "[1, 2, 3, 4, 5]", "--dim", "6", "--variant", "4"],
    ["irred", "--params", "[2, 1, -4]"],
    ["irred", "--params", '[1, 2, "27/2", 3]', "--h", "9"],
    ["irred", "--params", "[-4, 1, 2, 4, -1]"],
    ["irred", "--params", "[1, 2, 3, 4, 24]", "--dim", "6", "--variant", "3"],
    ["irred", "--params", "[1, 2, -3, 6, 5]", "--dim", "6"],
    ["irred", "--params", '["2", "3", "-1", "1/6", "1"]', "--dim", "6",
     "--variant", "5"],
    ["semisimple", "--params", "[1, 2, 3, 4, 5]"],
    ["semisimple", "--params", "[1, 2, 3, 6]", "--context", "t^4+t^3+t^2+t+1",
     "--mode", "constructive"],
    ["semisimple", "--params", "[1, 2, 3, 4, 24]"],
    ["eval", "--params", "[1, 2, 3]", "--words", "(s1 s2)^3", "--words", "b^2",
     "--words", "s1^-2 s2 a c^-1"],
    ["scan", "--params", '{"grid": [[1, 2, 3], [2, 1, -4], [1, 2], [1, 2, 3, 4, 24]]}'],
    ["build", "--params", "[1, 1]"],
    ["build", "--params", "[1, 2, 3, 4]", "--dim", "4"],
    ["semisimple", "--params", "[-4, 1, 2, 4, -1]"],
    ["semisimple", "--params", "[-4, 1, 2, 4, -1]", "--context", "t^4+t^3+t^2+t+1"],
    ["semisimple", "--params", '[1, 2, "27/2", 3]'],
    ["semisimple", "--params", '[1, 2, "27/2", 3]', "--context", "t^4+t^3+t^2+t+1"],
    ["irred", "--context", "t^2-1", "--params", '["[5/2,-1/2]", 1, "[1/2,-9/2]"]'],
    ["irred", "--context", "t^2-24", "--params", "[1, 2, 3, 4]", "--h", "[0,1]"],
    ["irred", "--params", "[1, 2, 3, 4, 24]", "--dim", "6", "--variant", "5"],
    ["verify", "--params", "[-4, 1, 2, 4, -1]", "--context", "t^4+t^3+t^2+t+1",
     "--f", "[0, 2]"],
    ["irred", "--params", "[1, 2, 3, 6]", "--h", "6"],
    ["irred", "--params", '[1, 2, 4, 8, "1/2"]', "--f", "2"],
    ["verify", "--context", "t^2-1", "--params", '["-4","3/2","[0,3]","-1","1/2"]',
     "--dim", "6", "--variant", "2"],
    ["irred", "--params", '["-3/4","3/2","-2/3","27"]', "--h=-9/2"],
    ["build", "--params", "[3]"],
    ["build", "--params", "[1, 2, 3]"],
    ["build", "--context", "t^2-1", "--params", '["-4","3/2","[0,3]","-1","1/2"]',
     "--dim", "6"],
    ["build", "--context", "t^2-1", "--params", '["[1,1]", 3]'],
    ["build", "--context", "t^2-1", "--params", '["-3","1","[-2,-1]","[-6,1]","[0,1]"]',
     "--dim", "6"],
    ["semisimple", "--context", "t^2-1", "--params", '["[5,2]","1","2","[-1,-1]","-2"]',
     "--mode", "constructive"],
    ["irred", "--context", "t^2-1", "--params", '["[5,5]","[5,-5]"]'],
    ["scan", "--params", SCAN_FRACTIONS],
    ["scan", "--params", SCAN_FRACTIONS, "--context", "t+2"],
    ["semisimple", "--params", '["1/2","-3/4",3,"9/2","-1/3"]'],
    # J4's norm u^2 + uv + v^2 (u, v the two pair products) has no rational
    # zero; it vanishes only where u/v is a cube root of unity
    ["semisimple", "--context", "t^2+t+1", "--params", '["1/2","-2/3","3/4","[0,-4/9]"]'],
    ["verify", "--context", "t^4+t^3+t^2+t+1", "--params", '[1, 2, "-3/2", 5, "7/3"]',
     "--dim", "6", "--variant", "3"],
    ["verify", "--context", "t^2-24", "--params", '["[1,1]", 2, "-1/3"]'],
    ["verify", "--context", "t^2-24", "--params", '["[0,1]", 2, 3, "-1/2", 5]',
     "--dim", "6", "--variant", "1"],
    ["verify", "--context", "t^2-24", "--params", '["2/3"]'],
    ["verify", "--context", "t^2-1", "--params", '["[2,1]", 5, -3]'],
    ["verify", "--context", "t^2-1", "--params", '["[3,1]", 5, -7, "1/2", 11]',
     "--dim", "6", "--variant", "1"],
    ["verify", "--context", "t^2-1", "--params", '["[2,1]", 3, "-1/2"]'],
    # irreducible reps with irrational entries, and sets over t^2-1 whose two
    # factors differ: the search decides, the closure decides, or no verdict
    ["irred", "--context", "t^2-24", "--params",
     '["[0, -9/2]", "[0, -7]", "[0, -4/3]", "[0, -9]", "[0, -2]"]', "--dim", "6",
     "--variant", "1"],
    ["irred", "--context", "t^2-24", "--params",
     '["[0, -7]", "[0, 1/3]", "[0, 1]", "[0, -5]", "[0, 32/2835]"]', "--f=[0, 2/3]"],
    ["irred", "--context", "t^4+t^3+t^2+t+1", "--params",
     '["[0, -6, 0, 0]", "[0, 5/2, 0, 0]", "[0, 8, 0, 0]", "[0, 4, 0, 0]", '
     '"[0, -16807/480, 0, 0]"]', "--f=[0, 7, 0, 0]"],
    ["irred", "--context", "t^3-2", "--params",
     '["[0, -6, 0]", "[0, 1, 0]", "[0, 5, 0]", "[0, -27/40, 0]"]', "--h=[0, 0, 9/2]"],
    ["irred", "--context", "t^2-1", "--params", '["[9/2, 3/2]", "[31/12, -1/12]", "[5/2, 1/2]"]'],
    ["irred", "--context", "t^2-1", "--params", '["[-1/2, -7/2]", "[-7/3, -8/3]", "[1, 3]"]'],
    ["irred", "--context", "t^2-1", "--params",
     '["[-13/2, 1/2]", "[-17/6, 19/6]", "[8, -1]", "[-4559/216, 5045/216]", "[-3, -2]"]',
     "--dim", "6", "--variant", "1"],
    # exited 2 before the unit certificate (the closure met a zero divisor);
    # the search answers, as do both images at t = 1 and t = -1
    ["irred", "--context", "t^2-1", "--params",
     '["[-5/2, 1/2]", "[2, -1/4]", "[83/64, -403/64]", "[5/4, -1/4]", "[5/6, 7/6]"]',
     "--dim", "6", "--variant", "1"],
    # verify over fields and over t^2-1, recorded while every call still ran
    # the Krylov minpoly; the last set's det g1 = 3 (1 + t) is a zero divisor
    ["verify", "--context", "t^2-24", "--params", '[2, 3, "1/2", 8]', "--h=[0,-1]"],
    ["verify", "--context", "t^2-24", "--params", '["[1,1]", 2, -3, "1/2", "[0,2]"]',
     "--dim", "6", "--variant", "5"],
    ["verify", "--context", "t^4+t^3+t^2+t+1", "--params",
     '["[0,0,2,0]", "[0,0,0,4]", 4, "-1/2", 2]', "--f=[0,-2,0,0]"],
    ["verify", "--context", "t^4+t^3+t^2+t+1", "--params",
     '["[0,1,0,0]", 2, "[1,1,0,0]", -3, "1/2"]', "--dim", "6", "--variant", "2"],
    ["verify", "--context", "t^3-2", "--params", '["[0,1,0]", 2, "[1,0,1]"]'],
    ["verify", "--context", "t^2-1", "--params", '["[3,1]", 5, "-7/2"]'],
    ["verify", "--context", "t^2-1", "--params", '["[1,1]", 3]'],
    # exited 2 before verify read minpoly off the similarity (the Krylov chain
    # met a zero divisor); X and its differences are units, and each answer
    # agrees with the images over Q at every root of the modulus
    ["verify", "--context", "t^3-t", "--params",
     '["[5,-5/8,-27/8]", "[2,14/9,-5/9]", "[-4,-5/12,49/12]"]'],
    ["verify", "--context", "t^2-1", "--params",
     '["[-1/4,3/4]", "[-1/6,7/6]", "[1/4,7/4]", "[31/4,33/4]"]', "--h=[5/2,3/2]"],
    ["verify", "--context", "t^3-t", "--params",
     '["[-6,1/2,5]", "[-144,-21/4,569/4]", "[1/4,5/12,25/3]"]'],
    ["verify", "--context", "t^3-t", "--params",
     '["[3,-37/24,-67/24]", "[-2/3,-5/36,37/36]", "[27/2,-55/14,-123/7]"]'],
    ["verify", "--context", "t^2-1", "--params",
     '["[-1/2,9/2]", "[-145/72,47/72]", "[1/6,13/6]"]'],
    ["verify", "--context", "t^3-t", "--params",
     '["[-1/3,-61/16,-185/48]", "[-9,-7/4,35/4]", "[-7/4,11/8,19/8]"]'],
    ["verify", "--context", "t^2-1", "--params",
     '["[47/24,53/24]", "[-10/3,-8/3]", "[163/64,157/64]"]'],
    ["verify", "--context", "t^2-1", "--params",
     '["[-37/3,38/3]", "[-3,2]", "[9/4,5/4]"]'],
    ["verify", "--context", "t^3-t", "--params",
     '["[2/9,-1/4,-161/36]", "[-1/2,-7/8,13/8]", "[1/3,-73/2,-269/6]"]'],
    ["verify", "--context", "t^3-t", "--params",
     '["[-5/3,-455/144,-313/144]", "[2,-25/8,23/8]", "[-7/3,7/24,7/24]"]'],
    ["verify", "--context", "t^3-t", "--params",
     '["[1/3,175/64,947/192]", "[-1/4,-21/4,-1/2]", "[-5/2,7/4,-15/4]"]'],
    ["verify", "--context", "t^2-1", "--params",
     '["[69/40,-29/40]", "[-9/4,-23/4]", "[-29/8,11/8]"]'],
    ["verify", "--context", "t^2-1", "--params",
     '["[4,1/2]", "[5,2]", "[3/14,39/14]"]'],
    ["verify", "--context", "t^3-t", "--params",
     '["[1/2,11/4,-15/4]", "[8/3,-5/24,-65/24]", "[3/2,-3/2,-4]"]'],
    ["verify", "--context", "t^3-t", "--params",
     '["[7,-3/2,-15/2]", "[-1/7,9/8,113/56]", "[-1,-17/6,-19/6]"]'],
    # extension products on irrational entries, recorded before products
    # convolved integer numerators: the full census over Q(zeta5), a set with
    # zeta-components (2 zeta, 2 zeta^4, 1, 4, 2), a d = 5 build with f = 2 zeta,
    # and a modulus with a non-integral coefficient
    ["semisimple", "--mode", "constructive", "--context", "t^4+t^3+t^2+t+1",
     "--params", '[1, 2, 3, 4, "4/3"]'],
    ["semisimple", "--mode", "constructive", "--context", "t^4+t^3+t^2+t+1",
     "--params", '["[0,2,0,0]", "[-2,-2,-2,-2]", 1, 4, 2]'],
    ["build", "--context", "t^4+t^3+t^2+t+1", "--params",
     '["[0,2,0,0]", "[-2,-2,-2,-2]", 1, 4, 2]', "--dim", "5", "--f", "[0,2,0,0]"],
    ["verify", "--context", "t^4+t^3+t^2+t+1", "--params",
     '["[0,2,0,0]", "[-2,-2,-2,-2]", 1, 4, 2]', "--f", "[0,0,0,2]"],
    ["build", "--context", "t^2-1/2", "--params", '["[0,1]", 2, 3]'],
    ["verify", "--context", "t^2-1/2", "--params", '["[0,1]", "[0,2]", 3, 6]',
     "--h", "[0,-6]"],
    ["verify", "--context", "t^2-1/2", "--params", '["[1,1]", 2, "-1/3", "[0,3]", 5]',
     "--dim", "6", "--variant", "2"],
    # verify over t^3-t and t^2-1, recorded while each of them still ran the
    # Krylov minpoly (a difference of X is a zero divisor)
    ["verify", "--context", "t^3-t", "--params", '["[0,4/3,-4/3]"]'],
    ["verify", "--context", "t^2-1", "--params", '["[-6,-5]", "[-5,5]"]'],
    ["verify", "--context", "t^2-1", "--params", '["[9,-2]", "[3,-3]", "[1,8]"]'],
    ["verify", "--context", "t^3-t", "--params",
     '["[5/3,-1,3]", "[0,5/4,-5/4]", "[-2,-2/3,3/2]"]'],
    # exited 2 while verify ran the Krylov minpoly (its chain met a
    # zero-divisor pivot); build_rep's proof answers, recorded after
    ["verify", "--context", "t^3-t", "--params",
     '["[9,6,6]", "[1,3/4,-3]", "[0,3/2,-3/2]"]'],
    ["verify", "--context", "t^2-1", "--params", '["[7,-5/4]", "[-2,5]", "[4,-4]"]'],
    # "words" that is no list of strings: a string was read per character,
    # an object by its keys, and [1] or [null] raised a TypeError
    ["eval", "--params", '{"X": [1, 2], "words": "ab"}'],
    ["eval", "--params", '{"X": [1, 2], "words": {"a": 1}}'],
    ["eval", "--params", '{"X": [1, 2], "words": [1]}'],
    ["eval", "--params", '{"X": [1, 2], "words": [null]}'],
    # exited 2 on a zero divisor before irred split the modulus at it; each
    # answer is the verdict of every image at a root of the modulus.  Over
    # t^2-1 no predicate is 0 but their product is (each image is reducible
    # through another one); over t^3-t one factor splits again, and in the
    # last set the second eigenvalue vanishes at t = -1
    ["irred", "--context", "t^2-1", "--params",
     '["[1/2,7/2]", "[0,1]", "[1/2,-7/2]", "[-3/2,-5/2]", "[-12,-28/3]"]', "--f=[-3,-1]"],
    ["irred", "--context", "t^3-t", "--params",
     '["[-70/3,6559/2187,44467/2187]", "[9,-1/6,-49/6]", "[7/3,0,-19/3]", '
     '"[1/2,-1/2,-3]", "[5,-3/2,11/2]"]', "--dim", "6", "--variant", "2"],
    ["irred", "--context", "t^3-t", "--params",
     '["[2,4/3,2/3]", "[9/4,-1/2,-11/4]", "[-1,7/8,9/8]"]'],
    # exited 0: a JSON true was read as 1, and h was dropped in dimension 2
    ["build", "--params", '{"X": [true, 2]}'],
    ["build", "--params", "[1,2]", "--h", "5"],
    # exited 0 or ran out of memory: a modulus of degree above 64 now exits 2
    # before FieldContext builds its reduction table, quadratic in the degree
    ["build", "--params", "[1,2]", "--context", "t^65-2"],
    ["build", "--params", json.dumps({"X": [1, 2], "context": [-2] + [0] * 64 + [1]})],
    # rational sets over extension contexts, recorded while semisimplicity
    # still evaluated them as field elements and checked their unit product
    ["semisimple", "--context", "t^2-1", "--params", "[-4, 1, 2, 4, -1]"],
    ["semisimple", "--context", "t^3-t", "--params", '[1, 2, "27/2", 3]'],
    ["scan", "--context", "t^4+t^3+t^2+t+1", "--params",
     '{"grid": [[1, 2, 3], [2, 1, -4], [1, 2, 3, 4, 24], [-4, 1, 2, 4, -1]]}'],
    # RepSpec refusals: a wrong root, each eigenvalue count, a variant out of
    # range and an unknown dimension
    ["build", "--params", "[1,2,3,6]", "--h", "5"],
    ["build", "--params", "[-4,1,2,4,-1]", "--f", "3"],
    ["verify", "--params", "[1,2,3]", "--dim", "2"],
    ["verify", "--params", "[1,2,3,4,5]", "--dim", "4", "--h", "6"],
    ["verify", "--params", "[1,2,3,4]", "--dim", "5", "--f", "2"],
    ["verify", "--params", "[1,2,3,4]", "--dim", "6", "--variant", "1"],
    ["verify", "--params", "[1,2,3,4,5]", "--dim", "6", "--variant", "9"],
    ["build", "--params", "[1,2,3,4,5]", "--dim", "7"],
    # builder zero divisors over t^2-1: the message names the factor of the
    # first inverse that fails (d = 3 at a Delta_i; d = 4 at e4/x_1^2, then at
    # Delta_1 where x_2 - x_1 vanishes at t = 1; d = 6 at a Delta_i)
    ["build", "--context", "t^2-1", "--params", '[2,3,"[5/2,1/2]"]'],
    ["build", "--context", "t^2-1", "--params", '["[2,2]",2,3,6]', "--h", "[6,6]"],
    ["build", "--context", "t^2-1", "--params", '["[15/2,-9/2]",3,1,4]', "--h", "[9,-3]"],
    ["build", "--context", "t^2-1", "--params", '["[1,1]",2,3,4,5]', "--dim", "6"],
    # rational specs over extension contexts, recorded while each was still
    # built in its own context: a census over Q(zeta5) with rational h = +-6
    # and +-4 and the five f = 2 zeta^k, a d = 6 verify over t^2-24 and a
    # d = 5 irred with f = 2 over t^3-t
    ["semisimple", "--mode", "constructive", "--context", "t^4+t^3+t^2+t+1",
     "--params", '[1, 2, 3, 6, "8/9"]'],
    ["verify", "--context", "t^2-24", "--params", "[1, 2, 3, 4, 5]", "--dim", "6",
     "--variant", "3"],
    ["irred", "--context", "t^3-t", "--params", '[1, 2, 4, 8, "1/2"]', "--f", "2"],
    # exited 2 while scan read each grid value through str(): a JSON list of
    # strings became its Python repr, "['1', '1']"
    ["scan", "--context", "t^2-24", "--params",
     '{"grid": [[["1", "1"], 2, 3], [["1/2", "-1"], "3/4", 5]]}'],
    # ended in a traceback: json raises a plain ValueError past 4300 digits
    ["build", "--params", "[1" + "0" * 5000 + ", 2]"],
    # a coefficient list longer than the degree, as a string and as a list
    ["build", "--context", "t^2-24", "--params", '["[1,2,3]", 2]'],
    ["build", "--context", "t^2-24", "--params", "[[1,2,3], 2]"],
    # the wrong number of eigenvalues for dimension 4 or 5 was named only
    # once e_d(X) had a root in the context; these said it had none
    ["verify", "--params", "[1,2,3,4,5]", "--dim", "4"],
    ["verify", "--params", "[1,2,3,4]", "--dim", "5"],
    # exited 2 while the root search divided by theta^k, a zero divisor over
    # t^3-t: e4 = 36 has the roots h = 6 and -6 at j = 0
    ["verify", "--context", "t^3-t", "--params", "[1,2,3,6]"],
    ["semisimple", "--mode", "constructive", "--context", "t^3-t", "--params", "[1,2,3,6]"],
    # a bad modulus was shown as a list of Fraction reprs
    ["verify", "--context", "2t^2-1", "--params", "[1,2]"],
    ["verify", "--context", "t^2-2t+1", "--params", "[1,2]"],
]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _corpus(path=CORPUS):
    return json.loads(path.read_text(encoding="utf-8"))


def record(path=CORPUS):
    """Write the corpus in CALLS order, running only calls with no entry."""
    stored = {json.dumps(e["argv"]): e for e in _corpus(path)}
    entries = []
    for argv in CALLS:
        entry = stored.get(json.dumps(argv))
        if entry is None:
            code, stdout, stderr = _run(argv)
            entry = {"argv": argv, "exit_code": code, "stdout": stdout, "stderr": stderr}
        entries.append(entry)
    path.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")


@pytest.mark.parametrize("index", range(len(CALLS)), ids=lambda i: f"{i:02d}-{CALLS[i][0]}")
def test_cli_output_unchanged(index):
    entry = _corpus()[index]
    code, stdout, stderr = _run(entry["argv"])
    assert code == entry["exit_code"]
    assert stdout == entry["stdout"]
    assert stderr == entry["stderr"]


def test_corpus_lists_every_call():
    assert [e["argv"] for e in _corpus()] == CALLS


def test_recorder_keeps_stored_entries(tmp_path):
    # the recorder runs only the missing call, puts it back in its place and
    # keeps the stored entries as they are: the file comes back byte for byte
    entries = _corpus()
    del entries[5]
    copy = tmp_path / "corpus.json"
    copy.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    record(copy)
    assert copy.read_bytes() == CORPUS.read_bytes()


if __name__ == "__main__":
    record()
