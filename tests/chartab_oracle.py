"""Test helper for `helixpq.chartab`: the orthogonality oracle, which
computes the inner product of every pair, so that `validate`, which
computes one pair per Galois orbit, can be tested against it."""

from helixpq.chartab import _pair_sum


def orthogonality(vectors, weights, diagonal, label) -> str:
    """The detail of the first pair i <= j of vectors whose weighted inner
    product is not diagonal[i] (i == j) or 0 (i < j), headed by
    label(i, j); empty when every pair holds."""
    for i, u in enumerate(vectors):
        for j in range(i, len(vectors)):
            got = _pair_sum(zip(u, vectors[j], weights))
            want = diagonal[i] if i == j else 0
            if got != want:
                return f"{label(i, j)}{got!r}, expected {want}"
    return ""
