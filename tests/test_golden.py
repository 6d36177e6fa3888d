"""Golden digest: the decomposer's output over a fixed corpus, pinned.

For a fixed input every output is byte-identical, across commits too. The
digest is one sha256 over, for each corpus graph in order, the text
decomposition, its JSON form and the JSON trace. A change that moves any
path, tie-break, component order or trace field changes the digest; a change
meant to alter output must update DIGEST and say why.
"""

import hashlib
import json
import random

from gallai.decompose import decompose, format_decomposition
from gallai.generate import FAMILIES, GenSpec, dense_instance, family, generate

DIGEST = "f15cf4215578b8c2f8d154453898398890dc138217436bf31e48191a3cd6414c"

# sizes for the families that take one; all odd, which friendship and
# triangle-chain need
_FAMILY_SIZES = (9, 31)
_FIXED = ("fig4a", "fig4b", "fig5a", "fig5b", "fig5c")


def _fuzz_trial(seed, max_n):
    """The graph `run_fuzz` builds for a sparse trial with this seed."""
    rng = random.Random(seed)
    n = rng.randint(4, max_n)
    p = rng.choice((0.3, 0.5, 0.7, 0.9))
    return generate(GenSpec(n=n, seed=seed, connect=True, p2=p))


def corpus():
    """The corpus graphs, in digest order."""
    for name in FAMILIES:
        sizes = (None,) if name in _FIXED else _FAMILY_SIZES
        for n in sizes:
            yield family(name, n)
    for s in range(200):
        yield _fuzz_trial(s, 200)
    for s in range(300):
        yield dense_instance(s, max_n=48)
    for s in range(100):
        # without connect, vertices may skip their back-edges: the small
        # graphs often keep a triangle component, the larger ones split
        yield generate(GenSpec(n=3 + s % 10, seed=s, connect=False, p2=0.8))
        yield generate(GenSpec(n=5 + 2 * s, seed=s, connect=False, p2=0.6))
    for s in (0, 1):
        yield generate(GenSpec(n=1200, seed=s, p2=0.6))


def digest():
    h = hashlib.sha256()
    for g in corpus():
        dec, trace, _met = decompose(g)
        h.update(format_decomposition(dec).encode())
        h.update(json.dumps(dec.to_json(), sort_keys=True).encode())
        h.update(json.dumps(trace.to_json(), sort_keys=True).encode())
    return h.hexdigest()


def test_golden_digest():
    assert digest() == DIGEST


if __name__ == "__main__":
    print(digest())
