"""The two-call reading of a block's profiles: the test oracle of
`exjs.block_profiles`."""

from gammalab import exjs


def canonical_pool(ctx, n):
    """The compiled rows of the canonical translate sigma^-1 alone."""
    return exjs._compile_pool(ctx, n, [exjs._sigma_inv(ctx, n)])


def canonical_profiles(tables):
    """(js, dual): the (T x q^m) arrays js(W0, delta_x) and dual_js(W0,
    delta_x) of the canonical W0 of each table of a block, read from the
    canonical pool alone and scaled by the normalizing constant."""
    ctx, n = tables[0].ctx, tables[0].n
    a, b = exjs._pool_profiles(tables, canonical_pool(ctx, n))
    scale = float(exjs._norm_const(ctx, n))
    return scale * a[:, 0], scale * b[:, 0]


def separate_profiles(tables, trials=100, seed=exjs.DEFAULT_SEED):
    """The `exjs.BlockProfiles` of a block read in two calls: the canonical
    pair from `canonical_profiles` (the canonical pool alone), and the test
    pairs from a compile of every test translate, none merged."""
    ctx, n = tables[0].ctx, tables[0].n
    translates = exjs._fe_translates(ctx, n, seed, trials)
    js, dual = exjs._pool_profiles(tables, exjs._compile_pool(ctx, n, translates))
    return exjs.BlockProfiles(*canonical_profiles(tables), js, dual,
                              len(translates) * ctx.q ** (n // 2))
