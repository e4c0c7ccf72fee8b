import os

import numpy as np
import pytest

from gldpc.ensemble import CheckNodeType, CnMixture, UnstructuredEnsemble, VnRegularEnsemble

SPEC_DIR = os.path.join(os.path.dirname(__file__), "specs")


def spec_path(name: str) -> str:
    return os.path.join(SPEC_DIR, name)


def trial_seed(base_seed: int, trial: int) -> int:
    """numpy's seed for trial `trial` of a run from base_seed: the oracle for the
    sampler's vectorised spawn chain."""
    child = np.random.SeedSequence(base_seed, spawn_key=(trial,))
    return int(child.generate_state(1, np.uint64)[0])


def dot_parity(row: int, v: int) -> int:
    return (row & v).bit_count() & 1


def vn_degrees(code):
    """Number of sockets on each VN of a SampledCode, counted from its socket lists."""
    degs = [0] * code.n
    for _, sockets in code.cns:
        for v in sockets:
            degs[v] += 1
    return tuple(degs)


def is_codeword(code, v) -> bool:
    """Membership oracle: every CN of a SampledCode sees a local codeword on its
    sockets, in order. v is a 0/1 sequence or an int bitmask of length code.n."""
    if isinstance(v, int):
        if v < 0 or v >> code.n:
            raise ValueError(f"vector {v} is not a word of length {code.n}")
        mask = v
    else:
        if len(v) != code.n:
            raise ValueError(f"vector length {len(v)} != block length {code.n}")
        mask = sum(1 << i for i, b in enumerate(v) if b)
    for t, sockets in code.cns:
        local = sum(1 << p for p, u in enumerate(sockets) if (mask >> u) & 1)
        if any(dot_parity(row, local) for row in code.types[t].parity):
            return False
    return True


@pytest.fixture(scope="session")
def spc3():
    return CheckNodeType.spc(3)


@pytest.fixture(scope="session")
def spc6():
    return CheckNodeType.spc(6)


@pytest.fixture(scope="session")
def ham7():
    return CheckNodeType.hamming(7)


@pytest.fixture(scope="session")
def ham15():
    return CheckNodeType.hamming(15)


@pytest.fixture(scope="session")
def spc3_mixture(spc3):
    return CnMixture.of([spc3], [1])


@pytest.fixture(scope="session")
def alldeg2_spc3(spc3_mixture):
    return UnstructuredEnsemble.of(spc3_mixture, {2: 1})


@pytest.fixture(scope="session")
def gallager_3_6(spc6):
    return VnRegularEnsemble(mixture=CnMixture.of([spc6], [1]), q=3)


@pytest.fixture(scope="session")
def bound_mix_ensemble(spc3, ham7):
    mixture = CnMixture.of([spc3, ham7], ["1/5", "4/5"])
    return UnstructuredEnsemble.of(mixture, {2: "1/10", 3: "9/10"})
