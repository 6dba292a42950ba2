"""Word-pairing kernel.

``form_factors(f, g)`` evaluates the structural part of the recursive
sesquilinear pairing of two words.  The pairing of two words is either
zero or a product of weights of multi-indices; this function returns the
list of those multi-indices (possibly empty, meaning the value 1) or
``None`` when the pairing vanishes.  Weight lookup and multiplication
stay in the caller so the same kernel serves every weight system.

The recursion is run as a loop of ``glue_step``, one step per block.
Each step splits the first block (k, r) off both words with
``split_block``, where k is the leading run and r the starred opposite
run after it, and glues them: the pairing survives the step only if
k_f + r_g == k_g + r_f, and that glued word is the step's multi-index.
An exhausted word is the empty block.  Words whose first letters have
opposite kinds pair to zero; a bar-initial glued word gives the weight
of the same word with its letter kinds swapped.
"""

from __future__ import annotations

from .freealg import split_block, swap_alphabet

# named in benchmark reports; this pure-Python kernel is the only one
KERNEL_IMPL = "pure"


def glue_step(f, g):
    """One block of the pairing of words f and g.

    Returns (factor, f_rest, g_rest): the multi-index this block
    contributes and what is left of each word, so that the pairing of f
    and g is w(factor) times the pairing of f_rest and g_rest.  Returns
    None when the pairing is zero at this block.  Two empty words glue
    to the empty factor.
    """
    if f and g and (f[0] > 0) != (g[0] > 0):
        # the glue test below fails here too; this skips the splits
        return None
    kf, rf, f = split_block(f)
    kg, rg, g = split_block(g)
    glued = kf + rg
    if glued != kg + rf:
        return None
    if glued and glued[0] < 0:
        glued = swap_alphabet(glued)
    return glued, f, g


def form_factors(f, g):
    """Weight-factor multi-indices of the pairing of words f and g.

    Returns a list of multi-index tuples whose weights multiply to the
    pairing value, or None when the pairing is zero.
    """
    factors = []
    while f or g:
        step = glue_step(f, g)
        if step is None:
            return None
        glued, f, g = step
        factors.append(glued)
    return factors
