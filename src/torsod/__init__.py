"""Exact-arithmetic workbench for toric divisorial extractions.

The package enumerates the semiorthogonal decomposition attached to a
one-relation toric local model with stack structure — the spanning window of
line-bundle classes, the fiber blocks, the vanishing inequalities, and a
replayable generation certificate — and cross-checks every claim against a
brute-force cohomology computation on compactified stacky fans.  All
arithmetic is exact (integers and fractions); nothing is floating point.
"""

__version__ = "0.1.0"

from .errors import (
    DegenerateDatum,
    DepthExceeded,
    DuplicateRay,
    ModelMismatch,
    NonPrimitiveRay,
    NonSimplicial,
    NotCoprime,
    OracleBoxError,
    RelationViolated,
    RequiresExtraction,
    SchemaError,
    SignPattern,
    TorsodError,
    UnknownExample,
    ValidationError,
)
from .extraction import (
    BirationalClass,
    ExtractionDatum,
    MorphismKind,
    classify,
    make_datum,
    sigma,
    sigma_alpha,
    validate,
)
from .lattice import (
    AbelianGroup,
    LatticeProjection,
    cokernel,
    determinant,
    integer_kernel,
    primitivize,
    quotient_project,
    smith_normal_form_full,
)
from .models import (
    CrossCheck,
    FiberModel,
    ModelPair,
    block_euler_characteristic,
    canned_example,
    canned_fan,
    count_identity_check,
    example_names,
    fan_names,
    fiber_model,
    fully_faithful_oracle_check,
    koszul_replay_check,
    semiorthogonality_oracle_check,
    transfer_dichotomy_check,
    transfer_label,
)
from .oracle import (
    SelfCheckReport,
    StackyFan,
    check_complete,
    cohomology,
    euler_characteristic,
    make_fan,
    oracle_self_check,
    section_count,
    validate_fan,
)
from .serialize import (
    canonical_json_bytes,
    certificate_from_obj,
    certificate_to_obj,
    datum_from_obj,
    datum_to_obj,
    fan_from_obj,
    fan_to_obj,
    fraction_str,
    load_json,
    sha256_hex,
)
from .sod import (
    BlockLabel,
    CertificateNode,
    CertificateVerification,
    Decomposition,
    GenerationCertificate,
    SpanningClass,
    block_labels,
    class_group,
    decompose,
    fiber_transfer_vanishes,
    fully_faithful_check,
    generation_certificate,
    generator_count_identity,
    semiorthogonality_check,
    spanning_classes,
    transfer_is_invertible,
    verify_certificate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
