"""Butterfly-arbitrage-free parameter domains for SVI smile sub-families.

The package certifies and constructs arbitrage-free smiles for the
three-parameter SVI sub-families (vanishing upward/downward, extremal
decorrelated, symmetric, SSVI and the long-maturity Heston limit), and
ships an independent brute-force oracle the closed forms are validated
against.
"""

from .certificates import DomainCertificate, make_certificate
from .core import (
    BOUNDARY_TOL,
    EvaluationDomainError,
    FukasawaViolation,
    InvalidParamsError,
    NoRootError,
    NormalizedSvi,
    RawSviParams,
    RogerLeeViolation,
    SmileDomainError,
    g1,
    hgg2,
    hgg2_prime,
    n_funcs,
    sigma_floor,
    sigma_floor_dual,
    total_variance,
)
from .fukasawa import (
    FukasawaInterval,
    fukasawa_threshold,
    l_minus_curve,
    mu_interval,
    mu_lower_curve,
    solve_l_minus,
)
from .oracle import (
    DensityReport,
    G2Zeros,
    SigmaStarResult,
    durrleman_check,
    g2_zeros,
    sigma_star,
)
from . import extremal, ssvi, symmetric, vanishing
from .extremal import ExtremalParams
from .ssvi import HestonLtParams, SsviParams, scan_uniqueness
from .symmetric import SymmetricParams
from .vanishing import VanishingParams

__version__ = "0.1.0"

__all__ = [
    "BOUNDARY_TOL",
    "DomainCertificate",
    "DensityReport",
    "EvaluationDomainError",
    "ExtremalParams",
    "FukasawaInterval",
    "FukasawaViolation",
    "G2Zeros",
    "HestonLtParams",
    "InvalidParamsError",
    "NoRootError",
    "NormalizedSvi",
    "RawSviParams",
    "RogerLeeViolation",
    "SigmaStarResult",
    "SmileDomainError",
    "SsviParams",
    "SymmetricParams",
    "VanishingParams",
    "durrleman_check",
    "extremal",
    "fukasawa_threshold",
    "g1",
    "g2_zeros",
    "hgg2",
    "hgg2_prime",
    "l_minus_curve",
    "make_certificate",
    "mu_interval",
    "mu_lower_curve",
    "n_funcs",
    "scan_uniqueness",
    "sigma_floor",
    "sigma_floor_dual",
    "sigma_star",
    "solve_l_minus",
    "ssvi",
    "symmetric",
    "total_variance",
    "vanishing",
]
