"""Multi-bit extraction from non-oblivious bit-fixing sources.

A source is n bits where q adversarial "bad" coordinates may depend
arbitrarily on the remaining good coordinates, which are t-wise
independent.  The extractor splits the input into blocks, applies a
boolean function per block, and compresses the per-block bits through
the generator matrix of a distance-verified linear code.  Exact
desk-scale oracles (full source enumeration, influence scans, bias
spectra) back every quantitative claim the pipeline's analysis rests on.
"""

import importlib

# each public name -> its home module, imported on first use (PEP 562), so
# that `import nobfext` loads no kernel and a command loads what it runs
_HOMES = {
    "errors": "DimensionError NobfError SearchBudgetExceeded ValidationError "
              "WorkCapExceeded",
    "sources": "ConstantAdversary Distribution EpsBiased ExactTwise ExplicitTable "
               "MajorityOfGood NobfSourceSpec ParityOfGood TableAdversary UniformBits "
               "enumerate_nobf irreducible_poly read_sample_batch sample_nobf_batch "
               "verify_twise write_sample_batch zeroed_counterpart",
    "resilient": "Majority RecursiveMajority3 ResilientFunction TableFunction Tribes "
                 "bias_under default_block_function function_from_descriptor "
                 "influence_exact influence_max_exact influence_mc is_monotone",
    "codes": "LinearCode build_good_code compress_batch min_distance_exact preset_code",
    "stats": "BiasSpectrum Estimate VaziraniReport XorBiasReport clopper_pearson fwht "
             "linear_test_bias parseval_bound sd_to_uniform_empirical "
             "statistical_distance vazirani_check xor_bias_product",
    "bfext": "BfextParams CompareZeroedReport WorstAdversaryReport compare_zeroed "
             "derive_params explicit_params extract_batch fixedness_probability "
             "output_distribution trace_batch worst_case_adversary",
}
_HOME = {name: module for module, names in _HOMES.items() for name in names.split()}

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def run_cli() -> None:
    """The `nobfext` script: `nobfext.cli` run as `__main__`, as by
    `python -m nobfext.cli`, so that both set up the process alike."""
    import runpy
    runpy.run_module(f"{__name__}.cli", run_name="__main__", alter_sys=True)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
