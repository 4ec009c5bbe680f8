"""Risk-averse portfolio allocation of ad calls with generalized VCG pricing.

A publisher selling pay-per-response ad calls faces random, uncertain
payoffs.  This package allocates the ad-call pool across offers by
mean-variance portfolio optimization, prices the resulting allocation with
a generalized VCG mechanism (including a synthetic participant carrying
the publisher's risk aversion), and empirically certifies the mechanism's
truthfulness, individual rationality and second-price limit.
"""

from .market import (
    PER_AD_CALL,
    PER_RESPONSE,
    MarketInstance,
    MarketValidationError,
    Offer,
    expected_value,
    make_market,
    market_from_mu,
    validate_market,
)
from .qp import (
    InfeasibleProblemError,
    KktReport,
    QpProblem,
    QpSolution,
    QpValidationError,
    SolverConvergenceError,
    check_kkt,
    project_to_simplex,
    solve,
)
from .allocation import (
    Allocation,
    QmapInstance,
    QmapValidationError,
    TransformUndefinedError,
    allocate,
    apportion,
    min_form_to_max_form,
    portfolio_objective,
    qmap_allocate,
    qmap_objective,
    validate_qmap,
)
from .pricing import (
    PriceSchedule,
    QmapPricingError,
    price_offer,
    price_risk_participant,
    price_schedule,
    qmap_prices,
)
from .verification import (
    EPS_PRICE,
    PropertyReport,
    brute_force_allocate,
    check_individual_rationality,
    check_second_price_limit,
    check_truthfulness,
    random_market,
    run_ir_suite,
    run_oracle_suite,
    run_property_suite,
    run_second_price_suite,
    run_truthfulness_suite,
    utility,
)

__version__ = "0.1.0"

__all__ = [
    "PER_AD_CALL",
    "PER_RESPONSE",
    "Allocation",
    "EPS_PRICE",
    "InfeasibleProblemError",
    "KktReport",
    "MarketInstance",
    "MarketValidationError",
    "Offer",
    "PriceSchedule",
    "PropertyReport",
    "QmapInstance",
    "QmapPricingError",
    "QmapValidationError",
    "QpProblem",
    "QpSolution",
    "QpValidationError",
    "SolverConvergenceError",
    "TransformUndefinedError",
    "allocate",
    "apportion",
    "brute_force_allocate",
    "check_individual_rationality",
    "check_kkt",
    "check_second_price_limit",
    "check_truthfulness",
    "expected_value",
    "make_market",
    "market_from_mu",
    "min_form_to_max_form",
    "portfolio_objective",
    "price_offer",
    "price_risk_participant",
    "price_schedule",
    "project_to_simplex",
    "qmap_allocate",
    "qmap_objective",
    "qmap_prices",
    "random_market",
    "run_ir_suite",
    "run_oracle_suite",
    "run_property_suite",
    "run_second_price_suite",
    "run_truthfulness_suite",
    "solve",
    "utility",
    "validate_market",
    "validate_qmap",
]
