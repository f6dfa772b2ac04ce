"""Multi-bit extraction from non-oblivious bit-fixing sources.

A source is n bits where q adversarial "bad" coordinates may depend
arbitrarily on the remaining good coordinates, which are t-wise
independent.  The extractor splits the input into blocks, applies a
boolean function per block, and compresses the per-block bits through
the generator matrix of a distance-verified linear code.  Exact
desk-scale oracles (full source enumeration, influence scans, bias
spectra) back every quantitative claim the pipeline's analysis rests on.
"""

from .errors import (DimensionError, NobfError, SearchBudgetExceeded,
                     ValidationError, WorkCapExceeded)
from .gf2 import BitMatrix, BitVector, gf2_rank
from .sources import (ConstantAdversary, Distribution, EpsBiased, ExactTwise,
                      ExplicitTable, MajorityOfGood, NobfSourceSpec,
                      ParityOfGood, TableAdversary, UniformBits,
                      enumerate_nobf, irreducible_poly, read_sample_batch,
                      sample_nobf_batch, verify_twise, write_sample_batch,
                      zeroed_counterpart)
from .resilient import (Majority, RecursiveMajority3, ResilientFunction,
                        TableFunction, Tribes, bias_under,
                        default_block_function, function_from_descriptor,
                        influence_exact, influence_max_exact, influence_mc,
                        is_monotone)
from .codes import (LinearCode, build_good_code, compress_batch,
                    min_distance_exact, preset_code)
from .stats import (BiasSpectrum, Estimate, VaziraniReport, XorBiasReport,
                    clopper_pearson, fwht, linear_test_bias, parseval_bound,
                    sd_to_uniform_empirical, statistical_distance,
                    vazirani_check, xor_bias_product)
from .bfext import (BfextParams, CompareZeroedReport, WorstAdversaryReport,
                    compare_zeroed, derive_params, explicit_params,
                    extract_batch, fixedness_probability, output_distribution,
                    trace_batch, worst_case_adversary)

__version__ = "0.1.0"

__all__ = [
    "BfextParams", "BiasSpectrum", "BitMatrix", "BitVector",
    "CompareZeroedReport", "ConstantAdversary", "DimensionError",
    "Distribution", "EpsBiased", "Estimate", "ExactTwise", "ExplicitTable",
    "LinearCode", "Majority", "MajorityOfGood", "NobfError", "NobfSourceSpec",
    "ParityOfGood", "RecursiveMajority3", "ResilientFunction",
    "SearchBudgetExceeded", "TableAdversary", "TableFunction", "Tribes",
    "UniformBits", "ValidationError", "VaziraniReport", "WorkCapExceeded",
    "WorstAdversaryReport", "XorBiasReport", "bias_under", "build_good_code",
    "clopper_pearson", "compare_zeroed", "compress_batch",
    "default_block_function", "derive_params", "enumerate_nobf",
    "explicit_params", "extract_batch", "fixedness_probability",
    "function_from_descriptor", "fwht", "gf2_rank", "influence_exact",
    "influence_max_exact", "influence_mc", "irreducible_poly", "is_monotone",
    "linear_test_bias", "min_distance_exact", "output_distribution",
    "parseval_bound", "preset_code", "read_sample_batch", "sample_nobf_batch",
    "sd_to_uniform_empirical", "statistical_distance", "trace_batch",
    "vazirani_check", "verify_twise", "worst_case_adversary",
    "write_sample_batch", "xor_bias_product", "zeroed_counterpart",
]
