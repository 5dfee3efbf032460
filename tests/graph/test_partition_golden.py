"""Golden partition table: what "byte-identical partitions" means.

The paper blames iteration differences at equal P on "different random
partitions", so for a given seed our Metis substitute must not move one
vertex.  Every row was generated at commit efd9cb9 (the parent of the
array-native partitioner rewrite): sha256 of ``TestCase.membership`` as int64
bytes, and its exact edge cut on the coupling graph.  A change to
``repro.graph`` that moves a digest changes every table cell downstream.
"""

import functools
import hashlib

import numpy as np
import pytest

from repro.cases import build_case
from repro.graph import edge_cut

# (case, size, nparts, seed, edge_cut, sha256 of the membership bytes)
GOLDEN = [
    # the five benchmark tuples at seed 0, table_sweep's second pass and
    # service_closed's four job seeds
    ("tc1", 51, 8, 0, 555.0,
     "6a499e3602f4e4becc7335f2b848c7f616a75ad7c9972072843a696d44ba1cef"),
    ("tc1", 51, 8, 1, 525.0,
     "d0e7d23fdb4ce518e33dd060e52a3311e7fe96f5ce72a734e06e1959ded57a37"),
    ("tc2", 15, 8, 0, 2920.0,
     "c628390fec57e023e561ffb931302d73a7ebebb63abd94d21742bd9b8f5cb7cd"),
    ("tc4", 15, 8, 0, 2920.0,
     "c628390fec57e023e561ffb931302d73a7ebebb63abd94d21742bd9b8f5cb7cd"),
    ("tc1", 101, 2, 0, 213.0,
     "d3f356a784853519e1302448c90e7e4a4156606244b8be764f655ddbfe420753"),
    ("tc1", 25, 4, 0, 163.0,
     "fa249ca0973755931da774c6d6c6ee186d61260c2283e69152aaa6bba91b1bdf"),
    ("tc1", 25, 4, 1, 150.0,
     "9df65ed587fb274166578b40306817955687b4424674b612ceb57f55ee4d338c"),
    ("tc1", 25, 4, 2, 125.0,
     "520ac7baed9a9599998de54a717da025ac1ad6c29f17d80a7fbccd98676c2e92"),
    ("tc1", 25, 4, 3, 160.0,
     "77f62dc372177f3bb92a27f196eef613aeaa34d898f91db3342723a2d8e0e56f"),
    # breadth: small graphs that skip coarsening, odd nparts, 3D, unstructured,
    # two dofs per node
    ("tc1", 9, 2, 0, 27.0,
     "cad1f4044f1e4c871848cd8c5d423d6eb7b9f427a6da9864e5e89bcc6be68d96"),
    ("tc1", 17, 4, 1, 105.0,
     "a66b651fdba5fe456a3334c393dfaf35fa2cfb882b17c9eee2b8cd3b78111df6"),
    ("tc1", 33, 5, 2, 215.0,
     "cd5eb710af34da3ee82837a2a17608ededad9a0d9eda7404b32eb2ab0e543409"),
    ("tc1", 33, 8, 7, 289.0,
     "41dee53effb06aa196d45995b6861076a87692b217d756a00367cbad28a4bb00"),
    ("tc2", 9, 4, 2, 628.0,
     "be4ce845b32ad3ca239ff3dc4a7b86e777dac23af2dc3b825ade15d94e6a8f47"),
    ("tc2", 9, 5, 1, 650.0,
     "3560e70196cdf7684f6409960303f18b009f8d2ec6c8288610d4a581155258e6"),
    ("tc2", 11, 2, 3, 440.0,
     "01e705ed508bbe5c687c416d403a01991da80231d6adea9bc0e6014af5ece492"),
    ("tc3", 12, 4, 0, 46.0,
     "ce881745dee6139809b40e3997f8aee51c3b6a4bb1363ccdf116e2c899731815"),
    ("tc3", 12, 5, 1, 57.0,
     "66c4d2ce4cf6bc064f8619badadcc823b57137466771356f67695effa234abcf"),
    ("tc3", 16, 8, 2, 109.0,
     "70b32529a44c5993426d0473790e824bc66f7836adc7bf5db082d44ea809a883"),
    ("tc4", 9, 2, 1, 304.0,
     "bfed977762d601372840b923e7ffe3d91085ab2f4036af59c4fa592d02ed053e"),
    ("tc4", 11, 5, 4, 1158.0,
     "e7e1927d545eda02526dcbf8f11c8e0b21f7625526ee0ea6a339897b2578aeae"),
    ("tc6", 24, 4, 0, 244.0,
     "e7999f4ed55ff93d7dc3cb3cec9239332beecc825d49f9bca371c1ab05f57575"),
    ("tc6", 24, 5, 1, 292.0,
     "ead6ce7890efa143b12239acfea7193ed56f50f0ca20da4aafe35afa7d7cb808"),
    ("tc6", 30, 8, 2, 532.0,
     "6b8debbdaeea71b6b68baf5455b6331b5753706f2424ccea921b15de69025308"),
]


@pytest.fixture(scope="module")
def cases():
    """Each (case, size) is built once for the module."""
    return functools.lru_cache(maxsize=None)(build_case)


@pytest.mark.parametrize("key,size,nparts,seed,cut,digest", GOLDEN)
def test_membership_matches_golden(cases, key, size, nparts, seed, cut, digest):
    case = cases(key, size)
    membership = case.membership(nparts, seed=seed)
    assert membership.dtype == np.int64
    assert hashlib.sha256(membership.tobytes()).hexdigest() == digest
    assert edge_cut(case.coupling_graph, membership) == cut
