"""The signed sorts as they were before `core.sym_canonical` became the one
signed sort, kept verbatim as oracles: `sym_canonical` sorted symmetric
words (twist 0), `ext_canonical` wedge words,
`_merge_frames` polyvector and form frames (callers skipped overlapping
frames first) and `_raw_sort` the raw letters of the Lefschetz wedge
oracle."""

from fractions import Fraction


def sym_canonical(indices, degree_of):
    """Canonical form of a symmetric word of basis indices.

    Returns (sorted_tuple, koszul_sign) or None when the word is zero
    (an odd-degree symbol repeated; char 0 kills 2(e.e)).
    `degree_of` maps a basis index to its degree.
    """
    word = list(indices)
    degrees = [degree_of(i) for i in word]
    sign = 1
    # insertion sort, accumulating (-1)^{d_a d_b} per adjacent swap
    for i in range(1, len(word)):
        j = i
        while j > 0 and word[j - 1] > word[j]:
            if degrees[j - 1] * degrees[j] % 2:
                sign = -sign
            word[j - 1], word[j] = word[j], word[j - 1]
            degrees[j - 1], degrees[j] = degrees[j], degrees[j - 1]
            j -= 1
    for a, b in zip(word, word[1:]):
        if a == b and degree_of(a) % 2:
            return None
    return tuple(word), Fraction(sign)


def ext_canonical(indices, degree_of):
    """Canonical form of a wedge word: sorted with the exterior sign
    (Koszul times parity); zero when an even-degree symbol repeats."""
    word = list(indices)
    degrees = [degree_of(i) for i in word]
    sign = 1
    for i in range(1, len(word)):
        j = i
        while j > 0 and word[j - 1] > word[j]:
            if degrees[j - 1] * degrees[j] % 2 == 0:
                sign = -sign
            word[j - 1], word[j] = word[j], word[j - 1]
            degrees[j - 1], degrees[j] = degrees[j], degrees[j - 1]
            j -= 1
    for a, b in zip(word, word[1:]):
        if a == b and degree_of(a) % 2 == 0:
            return None
    return tuple(word), Fraction(sign)


def _merge_frames(f1, f2):
    """Sorted union and the sign of the sorting permutation (frames are odd)."""
    merged = list(f1) + list(f2)
    sign = 1
    for i in range(1, len(merged)):
        j = i
        while j > 0 and merged[j - 1] > merged[j]:
            merged[j - 1], merged[j] = merged[j], merged[j - 1]
            sign = -sign
            j -= 1
    return tuple(merged), sign


def _raw_sort(letters):
    letters = list(letters)
    sign = 1
    for i in range(1, len(letters)):
        j = i
        while j > 0 and letters[j - 1] > letters[j]:
            letters[j - 1], letters[j] = letters[j], letters[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(letters, letters[1:]):
        if a == b:
            return None
    return tuple(letters), sign
