"""Test-suite settings, and the reference oracle, shared by every module."""

import atexit
import functools
import shutil
import tempfile
from fractions import Fraction

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from cdslab.classical import neq_cds
from cdslab.framework import pad_counts

# Hypothesis keeps its files (the source-constants cache among them) in a
# temporary directory removed at exit, so a test run leaves no
# ``.hypothesis/`` behind.
_HYPOTHESIS_HOME = tempfile.mkdtemp(prefix="cdslab-hypothesis-")
atexit.register(shutil.rmtree, _HYPOTHESIS_HOME, ignore_errors=True)
set_hypothesis_home_dir(_HYPOTHESIS_HOME)

# Property tests draw the same examples on every run and keep no example
# database, so the suite stays deterministic.
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")


def _per_r_pad_measures(key_cds, x, y):
    """Fidelity and product distance of the pad lift of a CDS hiding
    ``K = secret_alphabet`` keys (2-bit keys for a qubit pad), one (pad key,
    randomness) draw at a time, with a Fraction key posterior per
    transcript: the reference the padded-qubit rule of
    ``framework.pad_counts`` is checked against."""
    keys = key_cds.secret_alphabet
    total = keys << key_cds.randomness_bits
    correct = 0
    draws: dict = {}
    for key in range(keys):
        for r in range(1 << key_cds.randomness_bits):
            ma, mb = key_cds.message_a(x, key, r), key_cds.message_b(y, r)
            decoded = key_cds.decoder(ma, x, mb, y)
            correct += (0 if decoded is None else decoded) == key
            draws.setdefault((ma, mb), [0] * keys)[key] += 1
    distance = Fraction(0)
    for counts in draws.values():
        mass = Fraction(sum(counts), total)
        distance += mass * sum(abs(Fraction(c, sum(counts)) - Fraction(1, keys)) for c in counts)
    return Fraction(correct, total), distance


# session-scoped: a stateless function, so property tests may take it too
@pytest.fixture(scope="session")
def per_r_pad_measures():
    return _per_r_pad_measures


@functools.lru_cache(maxsize=None)
def _hybrid_pair_tables(n):
    """Every shortened pair's key-pair decoded draws and posterior gap for
    ``HybridNeqCdqs(n)``, one ``pad_counts(...).square()`` per pair ``(a, b)``
    of ``log n`` bits, with the two shared denominators."""
    copy = neq_cds(n.bit_length() - 1)
    decoded, gap = {}, {}
    for a in range(n):
        for b in range(n):
            pair = pad_counts(copy, a, b).square()
            decoded[(a, b)] = pair.decoded
            gap[(a, b)] = pair.gap()
    return decoded, gap, pair.total, pair.keys * pair.total


def _tabulated_hybrid_measures(n, x, y):
    """Entanglement fidelity and product distance of ``HybridNeqCdqs(n)`` at
    ``(x, y)``, averaged over all ``n^2`` shortening outcomes ``(a, b)``: the
    outcome weighs ``S_{a xor b}^2 / n^3``, with ``S_c = sum_i (-1)^{z_i +
    <c, i>}`` summed directly for ``z = x xor y``.  The reference the
    equality-class form of the hybrid is checked against."""
    decoded, gap, fidelity_scale, distance_scale = _hybrid_pair_tables(n)
    z = x ^ y
    signs = [
        sum(1 - 2 * (((z >> i) ^ (i & c).bit_count()) & 1) for i in range(n))
        for c in range(n)
    ]
    weights = {(a, b): signs[a ^ b] ** 2 for a in range(n) for b in range(n)}
    cube = n**3
    return (
        Fraction(sum(w * decoded[ab] for ab, w in weights.items()), cube * fidelity_scale),
        Fraction(sum(w * gap[ab] for ab, w in weights.items()), cube * distance_scale),
    )


@pytest.fixture(scope="session")
def tabulated_hybrid_measures():
    return _tabulated_hybrid_measures
