"""Determination of characteristic functions by their imaginary parts.

The toolkit represents finite signed measures on R, Z, the circle, the
cyclic groups and box products of the line; computes the norm of the
imaginary part of a characteristic function (the total variation of the
measure's antisymmetric part); decides determination exactly, by
whether the measure shares mass with its reflection (norm equal to 1);
constructs explicit companion measures when determination fails; and
reconstructs the unique measure when it holds. A closed-form oracle on
Z_n cross-validates the whole pipeline.
"""

from imchar.catalog import (ClassifyResult, DistributionSpec, catalog_names,
                            classify, classify_all, criterion_set, domain_of,
                            expected_classification, make_measure, spec)
from imchar.charfn import (CharFnSample, GramReport, default_dual_grid,
                           eval_cf, fourier_coeffs, im_cf, psd_check, re_cf,
                           sample_cf)
from imchar.decompose import (JordanPair, SymAntiSplit, VSetCertificate,
                              hahn_jordan, sym_anti_split, v_set_certificate)
from imchar.determine import (CompanionResult, DeterminationVerdict, bnorm_im,
                              companion, is_determined, reconstruct,
                              support_criterion_check)
from imchar.domains import (CIRCLE, INTEGERS, REAL_LINE, BorelSet,
                            GroupDomain, cyclic, real_box)
from imchar.errors import (DomainMismatchError, FormatError, ImcharError,
                           IntegrationError, InternalCheckError,
                           ParameterError, PreconditionError,
                           QuadratureWarning, UnsupportedDomainError)
from imchar.finite import (FiniteMeasureVector, UniquenessReport,
                           brute_uniqueness, dft, idft, oracle_agreement,
                           random_measures, to_measure)
from imchar.measures import (Atom, DensitySegment, SignedMeasure, add,
                             build_measure, density_value, from_atoms, mass,
                             measure_of, named_density_measure, point_mass,
                             poly_density_measure, product_measure, reflect,
                             scale, subtract, total_variation, zero_measure)
from imchar.wire import (dumps_measure, load_measure, loads_measure,
                         measure_from_obj, measure_to_obj, set_to_obj)

__version__ = "0.1.0"

__all__ = [
    "Atom", "BorelSet", "CharFnSample", "ClassifyResult", "CompanionResult",
    "DensitySegment", "DeterminationVerdict", "DistributionSpec",
    "DomainMismatchError", "FiniteMeasureVector", "FormatError", "GramReport",
    "GroupDomain", "ImcharError", "IntegrationError", "InternalCheckError",
    "JordanPair", "ParameterError", "PreconditionError", "QuadratureWarning",
    "SignedMeasure", "SymAntiSplit", "UniquenessReport",
    "UnsupportedDomainError", "VSetCertificate",
    "CIRCLE", "INTEGERS", "REAL_LINE",
    "add", "bnorm_im", "brute_uniqueness", "build_measure", "catalog_names",
    "classify", "classify_all", "companion", "criterion_set", "cyclic",
    "default_dual_grid", "density_value", "dft", "domain_of", "dumps_measure",
    "eval_cf", "expected_classification", "fourier_coeffs", "from_atoms",
    "hahn_jordan", "idft", "im_cf", "is_determined", "load_measure",
    "loads_measure", "make_measure", "mass", "measure_from_obj",
    "measure_of", "measure_to_obj", "named_density_measure",
    "oracle_agreement", "point_mass", "poly_density_measure",
    "product_measure", "psd_check", "random_measures", "re_cf", "real_box",
    "reconstruct", "reflect", "sample_cf", "scale", "set_to_obj", "spec",
    "subtract", "support_criterion_check", "sym_anti_split", "to_measure",
    "total_variation", "v_set_certificate", "zero_measure",
]
