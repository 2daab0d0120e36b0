"""The two-call reading of a block's profiles: the test oracle of
`exjs.block_profiles`."""

from gammalab import exjs


def separate_profiles(tables, trials=100, seed=exjs.DEFAULT_SEED):
    """The `exjs.BlockProfiles` of a block read in two calls: the canonical
    pair from `exjs.canonical_profiles` (the canonical pool alone), and the
    test pairs from a compile of every test translate, none merged."""
    ctx, n = tables[0].ctx, tables[0].n
    translates = exjs._fe_translates(ctx, n, seed, trials)
    js, dual = exjs._pool_profiles(tables, exjs._compile_pool(ctx, n, translates))
    return exjs.BlockProfiles(*exjs.canonical_profiles(tables), js, dual,
                              len(translates) * ctx.q ** (n // 2))
