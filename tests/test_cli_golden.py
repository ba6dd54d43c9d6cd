"""Golden CLI outputs: exact stdout, stderr and exit code per command and format.

Every case was recorded from the CLI and is compared byte for byte, so any
change to a table, witness line, JSON document or exit code shows up here.
An argument "@name.json" stands for the pair file PAIR_FILES[name].
"""

import json

import pytest
from click.testing import CliRunner

from partition_sieve.cli import main

def _explicit(*multisets):
    return [{"explicit": [list(e) for e in ms]} for ms in multisets]

PAIR_FILES = {
    # 8 strands {1} and 2 strands {2}: dist --n 4 has j = 0, 2, 8, 10, so rows
    # sorted as strings would come out in a different order.
    "jsort": {
        "name": "jsort",
        "F": _explicit(*[[(1, 1)]] * 8, *[[(2, 1)]] * 2),
        "G": _explicit(*[[(1, 1)]] * 8, *[[(2, 1)]] * 2),
    },
    # Disjoint supports, but the weights at strand 0 differ (3 against 2).
    "weights": {
        "name": "weights",
        "F": _explicit([(3, 1)], [(4, 1)]),
        "G": _explicit([(1, 2)], [(4, 1)]),
    },
    # The union weight of the single index (strand 1, t=1) differs: 10 against 9.
    "unions": {
        "name": "unions",
        "F": _explicit([(2, 1), (4, 1)], [(4, 1), (6, 1)]),
        "G": _explicit([(1, 2), (2, 2)], [(1, 1), (2, 1), (3, 2)]),
    },
    # Singleton weights agree; the union of both indices differs: 12 against 13.
    "unions2": {
        "name": "unions2",
        "F": _explicit([(2, 1), (4, 1)], [(4, 1), (6, 1)]),
        "G": _explicit([(1, 2), (2, 2)], [(1, 1), (2, 1), (3, 1), (4, 1)]),
    },
}

GOLDEN = [
    (
        ['catalog'],
        0,
        """\
andrews  [--m1-file FILE]
    X: part sizes outside M2 = M1 - 2M1; Y: part sizes i with i not in M1, or i in M1 and repeated. Andrews' theorem at j=0; M1 must be doubling-closed within the working bound.
euler
    X: even part sizes present; Y: repeated part sizes. Identically distributed; j=0 recovers Euler's distinct-parts = odd-parts theorem.
glaisher  [--d D (D > 1)]
    X: part sizes divisible by D; Y: part sizes with multiplicity >= D. Glaisher's theorem at j=0; disjoint-family criterion (theorem B).
mod6
    X: part sizes = 2,3,4 (mod 6); Y: odd multiples of 3 present, plus repeated sizes not divisible by 3 (weight-matched form; use --prose-y on compare for the divergent 'any multiple of 3' reading).
remmel_consecutive
    X: adjacent even sizes 2i,2i+2 both present; Y: adjacent sizes i,i+1 both repeated. Passes the union-weight criterion (theorem C) while failing theorem B's disjointness.
squares
    X: part sizes that are perfect squares; Y: part sizes i with multiplicity >= i. Disjoint-family criterion (theorem B).
""",
        "",
    ),
    (
        ['catalog', '--format', 'csv'],
        0,
        """\
name,params,description
andrews,--m1-file FILE,"X: part sizes outside M2 = M1 - 2M1; Y: part sizes i with i not in M1, or i in M1 and repeated. Andrews' theorem at j=0; M1 must be doubling-closed within the working bound."
euler,,"X: even part sizes present; Y: repeated part sizes. Identically distributed; j=0 recovers Euler's distinct-parts = odd-parts theorem."
glaisher,--d D (D > 1),"X: part sizes divisible by D; Y: part sizes with multiplicity >= D. Glaisher's theorem at j=0; disjoint-family criterion (theorem B)."
mod6,,"X: part sizes = 2,3,4 (mod 6); Y: odd multiples of 3 present, plus repeated sizes not divisible by 3 (weight-matched form; use --prose-y on compare for the divergent 'any multiple of 3' reading)."
remmel_consecutive,,"X: adjacent even sizes 2i,2i+2 both present; Y: adjacent sizes i,i+1 both repeated. Passes the union-weight criterion (theorem C) while failing theorem B's disjointness."
squares,,"X: part sizes that are perfect squares; Y: part sizes i with multiplicity >= i. Disjoint-family criterion (theorem B)."
""",
        "",
    ),
    (
        ['catalog', '--format', 'json'],
        0,
        """\
[
  {
    "name": "andrews",
    "params": "--m1-file FILE",
    "description": "X: part sizes outside M2 = M1 - 2M1; Y: part sizes i with i not in M1, or i in M1 and repeated. Andrews' theorem at j=0; M1 must be doubling-closed within the working bound."
  },
  {
    "name": "euler",
    "params": "",
    "description": "X: even part sizes present; Y: repeated part sizes. Identically distributed; j=0 recovers Euler's distinct-parts = odd-parts theorem."
  },
  {
    "name": "glaisher",
    "params": "--d D (D > 1)",
    "description": "X: part sizes divisible by D; Y: part sizes with multiplicity >= D. Glaisher's theorem at j=0; disjoint-family criterion (theorem B)."
  },
  {
    "name": "mod6",
    "params": "",
    "description": "X: part sizes = 2,3,4 (mod 6); Y: odd multiples of 3 present, plus repeated sizes not divisible by 3 (weight-matched form; use --prose-y on compare for the divergent 'any multiple of 3' reading)."
  },
  {
    "name": "remmel_consecutive",
    "params": "",
    "description": "X: adjacent even sizes 2i,2i+2 both present; Y: adjacent sizes i,i+1 both repeated. Passes the union-weight criterion (theorem C) while failing theorem B's disjointness."
  },
  {
    "name": "squares",
    "params": "",
    "description": "X: part sizes that are perfect squares; Y: part sizes i with multiplicity >= i. Disjoint-family criterion (theorem B)."
  }
]
""",
        "",
    ),
    (
        ['dist', '--pair', 'euler', '--side', 'X', '--n', '4'],
        0,
        """\
euler.X  n=4  total=5
j  count
0      2
1      3
""",
        "",
    ),
    (
        ['dist', '--pair-file', '@jsort.json', '--side', 'X', '--n', '4'],
        0,
        """\
jsort.X  n=4  total=5
 j  count
 0      1
 2      1
 8      2
10      1
""",
        "",
    ),
    (
        ['dist', '--pair-file', '@jsort.json', '--side', 'Y', '--n', '4', '--format', 'csv'],
        0,
        """\
n,j,count,total
4,0,1,5
4,2,1,5
4,8,2,5
4,10,1,5
""",
        "",
    ),
    (
        ['dist', '--pair-file', '@jsort.json', '--side', 'X', '--n', '4', '--format', 'json'],
        0,
        """\
{
  "statistic": "jsort.X",
  "n": "4",
  "counts": {
    "0": "1",
    "2": "1",
    "8": "2",
    "10": "1"
  },
  "total": "5"
}
""",
        "",
    ),
    (
        ['compare', '--pair', 'euler', '--n-max', '5'],
        0,
        """\
pair: euler
X: euler.X  Y: euler.Y
n=1  identical
n=2  identical
n=3  identical
n=4  identical
n=5  identical
result: identical for all n in [1, 5]
""",
        "",
    ),
    (
        ['compare', '--pair', 'mod6', '--prose-y', '--n-max', '6'],
        1,
        """\
pair: mod6
X: mod6.X  Y: mod6_Y_prose
n=1  identical
n=2  identical
n=3  identical
n=4  identical
n=5  identical
n=6  divergent at j=0: X count 3, Y count 2
result: divergent, first at n=6
""",
        "",
    ),
    (
        ['compare', '--pair', 'mod6', '--prose-y', '--n-max', '6', '--format', 'csv'],
        1,
        """\
n,verdict,j,count_x,count_y
1,identical,,,
2,identical,,,
3,identical,,,
4,identical,,,
5,identical,,,
6,divergent,0,3,2
""",
        "",
    ),
    (
        ['compare', '--pair', 'mod6', '--prose-y', '--n-max', '6', '--format', 'json'],
        1,
        """\
{
  "pair": "mod6",
  "x": "mod6.X",
  "y": "mod6_Y_prose",
  "n_from": "1",
  "n_to": "6",
  "identical_everywhere": false,
  "results": [
    {
      "n": "1",
      "verdict": "identical"
    },
    {
      "n": "2",
      "verdict": "identical"
    },
    {
      "n": "3",
      "verdict": "identical"
    },
    {
      "n": "4",
      "verdict": "identical"
    },
    {
      "n": "5",
      "verdict": "identical"
    },
    {
      "n": "6",
      "verdict": "divergent",
      "j": "0",
      "count_x": "3",
      "count_y": "2"
    }
  ]
}
""",
        "",
    ),
    (
        ['sieve', '--pair', 'euler', '--side', 'X', '--n', '4'],
        0,
        """\
euler.X (sieve)  n=4  total=5
j  count
0      2
1      3
subsets explored: 3
crosscheck: PASS
""",
        "",
    ),
    (
        ['sieve', '--pair', 'euler', '--side', 'X', '--n', '4', '--format', 'csv'],
        0,
        """\
n,j,count,total
4,0,2,5
4,1,3,5
""",
        """\
crosscheck: PASS
""",
    ),
    (
        ['sieve', '--pair', 'euler', '--side', 'X', '--n', '4', '--format', 'json'],
        0,
        """\
{
  "statistic": "euler.X (sieve)",
  "n": "4",
  "counts": {
    "0": "2",
    "1": "3"
  },
  "total": "5",
  "subsets_explored": "3",
  "truncated": false,
  "crosscheck": "PASS"
}
""",
        "",
    ),
    (
        ['sieve', '--pair', 'euler', '--side', 'Y', '--n', '20', '--subset-cap', '3'],
        3,
        """\
truncated: subset cap exceeded after 4 subsets
""",
        "",
    ),
    (
        ['sieve', '--pair', 'euler', '--side', 'Y', '--n', '20', '--subset-cap', '3', '--format', 'csv'],
        3,
        "",
        """\
truncated: subset cap exceeded after 4 subsets
""",
    ),
    (
        ['sieve', '--pair', 'euler', '--side', 'Y', '--n', '20', '--subset-cap', '3', '--format', 'json'],
        3,
        """\
{
  "statistic": "euler.Y (sieve)",
  "n": "20",
  "truncated": true,
  "subsets_explored": "4"
}
""",
        "",
    ),
    (
        ['check', '--pair', 'squares', '--theorem', 'b', '--n-max', '20'],
        0,
        """\
pair: squares
theorem: B
verified_up_to: 20
holds: true
""",
        "",
    ),
    (
        ['check', '--pair', 'remmel_consecutive', '--theorem', 'b', '--n-max', '12'],
        1,
        """\
pair: remmel_consecutive
theorem: B
verified_up_to: 12
holds: false
witness: F members (strand 0, t=1) {2,4} and (strand 0, t=2) {4,6} share element 4
""",
        "",
    ),
    (
        ['check', '--pair', 'remmel_consecutive', '--theorem', 'b', '--n-max', '12', '--format', 'json'],
        1,
        """\
{
  "pair": "remmel_consecutive",
  "theorem": "B",
  "verified_up_to": "12",
  "holds": false,
  "inconclusive": false,
  "subsets_explored": "0",
  "witness": {
    "kind": "shared_support",
    "side": "F",
    "index_a": {
      "strand": "0",
      "t": "1"
    },
    "index_b": {
      "strand": "0",
      "t": "2"
    },
    "element": "4",
    "multiset_a": "{2,4}",
    "multiset_b": "{4,6}"
  }
}
""",
        "",
    ),
    (
        ['check', '--pair-file', '@weights.json', '--theorem', 'b', '--n-max', '10'],
        1,
        """\
pair: weights
theorem: B
verified_up_to: 10
holds: false
witness: weights differ at (strand 0, t=1): F {3} weighs 3, G {1,1} weighs 2
""",
        "",
    ),
    (
        ['check', '--pair-file', '@weights.json', '--theorem', 'b', '--n-max', '10', '--format', 'json'],
        1,
        """\
{
  "pair": "weights",
  "theorem": "B",
  "verified_up_to": "10",
  "holds": false,
  "inconclusive": false,
  "subsets_explored": "0",
  "witness": {
    "kind": "weight_mismatch",
    "index": {
      "strand": "0",
      "t": "1"
    },
    "weight_f": "3",
    "weight_g": "2",
    "multiset_f": "{3}",
    "multiset_g": "{1,1}"
  }
}
""",
        "",
    ),
    (
        ['check', '--pair', 'remmel_consecutive', '--theorem', 'c', '--n-max', '12'],
        0,
        """\
pair: remmel_consecutive
theorem: C
verified_up_to: 12
subsets explored: 4
holds: true
""",
        "",
    ),
    (
        ['check', '--pair-file', '@unions.json', '--theorem', 'c', '--n-max', '10'],
        1,
        """\
pair: unions
theorem: C
verified_up_to: 10
subsets explored: 3
holds: false
witness: union weights differ for S = [(strand 1, t=1)]: F union {4,6} weighs 10, G union {1,2,3,3} weighs 9
""",
        "",
    ),
    (
        ['check', '--pair-file', '@unions.json', '--theorem', 'c', '--n-max', '10', '--format', 'json'],
        1,
        """\
{
  "pair": "unions",
  "theorem": "C",
  "verified_up_to": "10",
  "holds": false,
  "inconclusive": false,
  "subsets_explored": "3",
  "witness": {
    "kind": "union_weight_mismatch",
    "positions": [
      {
        "strand": "1",
        "t": "1"
      }
    ],
    "weight_f": "10",
    "weight_g": "9",
    "union_f": "{4,6}",
    "union_g": "{1,2,3,3}"
  }
}
""",
        "",
    ),
    (
        ['check', '--pair', 'remmel_consecutive', '--theorem', 'c', '--n-max', '24', '--subset-cap', '2'],
        3,
        """\
pair: remmel_consecutive
theorem: C
verified_up_to: 24
subsets explored: 3
inconclusive: subset cap exceeded before the frontier was exhausted
""",
        "",
    ),
    (
        ['check', '--pair', 'remmel_consecutive', '--theorem', 'c', '--n-max', '24', '--subset-cap', '2', '--format', 'json'],
        3,
        """\
{
  "pair": "remmel_consecutive",
  "theorem": "C",
  "verified_up_to": "24",
  "holds": true,
  "inconclusive": true,
  "subsets_explored": "3",
  "witness": null
}
""",
        "",
    ),
    (
        ['dist', '--pair', 'glaisher', '--d', '1', '--side', 'X', '--n', '4'],
        2,
        "",
        """\
Usage: main dist [OPTIONS]
Try 'main dist --help' for help.

Error: glaisher requires an integer d > 1, got 1
""",
    ),
    (
        ['check', '--pair-file', '@unions2.json', '--theorem', 'c', '--n-max', '14', '--format', 'csv'],
        1,
        """\
pair: unions2
theorem: C
verified_up_to: 14
subsets explored: 3
holds: false
witness: union weights differ for S = [(strand 0, t=1), (strand 1, t=1)]: F union {2,4,6} weighs 12, G union {1,1,2,2,3,4} weighs 13
""",
        "",
    ),
]

@pytest.mark.parametrize(
    "args, exit_code, stdout, stderr", GOLDEN, ids=[" ".join(case[0]) for case in GOLDEN]
)
def test_golden(tmp_path, args, exit_code, stdout, stderr):
    for name, doc in PAIR_FILES.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    argv = [str(tmp_path / a[1:]) if a.startswith("@") else a for a in args]
    result = CliRunner().invoke(main, argv)
    assert (result.stdout, result.stderr, result.exit_code) == (stdout, stderr, exit_code)
