"""Counting and bounding constrained codewords in binary linear codes.

The package counts how many codewords of a binary linear code satisfy a
combinatorial constraint (running charge, subblock composition, run-length,
run-parity, fixed weight) by summing the constraint's character sums over the
dual code, computes weight distributions of constrained sets and constrained
subcodes, and produces Delsarte-style and sphere-packing LP upper bounds on
constrained codes, using only numpy and a bundled simplex solver.
"""

from .errors import CapExceeded
from .gf2 import (
    BinaryLinearCode,
    BitMatrix,
    BitWord,
    CodeFormatError,
    CosetDecomposition,
    coset_decompose,
    coset_weight_enumerator,
    dual_code,
    gf2_rank,
    hamming_code,
    iterate_span,
    load_code,
    reed_muller,
    save_code,
    simplex_code,
    zero_code,
)
from .spectral import (
    IntSpectrum,
    Krawtchouk,
    krawtchouk,
    krawtchouk_table,
    self_convolution_counts,
    weight_class_sums,
    wht,
)
from .constraints import (
    ConstraintSpec,
    OrbitStructure,
    cardinality,
    char_sum,
    char_sum_array,
    char_sum_int,
    even_strict,
    fixed_weight,
    member,
    member_array,
    member_int,
    member_ints,
    odd_relaxed,
    odd_strict,
    orbit_char_sum,
    orbit_structure,
    parse_constraint,
    rll,
    shell_sums,
    subblock,
    two_charge,
    two_charge_basis,
)
from .counting import (
    CountResult,
    OddCountReport,
    TwoChargeStructure,
    WeightDistribution,
    code_weight_distribution,
    constrained_weight_distribution,
    count_brute,
    count_in_code,
    count_odd_in_code,
    macwilliams,
    rm_subblock_count_plotkin,
    two_charge_structure,
    weight_distribution,
)
from .lp import (
    BoundReport,
    CertificateRejected,
    LpModel,
    LpSolution,
    SolverError,
    del_classic,
    del_constrained,
    del_constrained_orbits,
    del_constrained_sym,
    del_full,
    dual_certificate_bound,
    dump_model,
    gensph,
    solve,
)

__version__ = "0.1.0"
