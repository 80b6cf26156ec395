"""Double-side aggregation engine for fair-based e-commerce.

Sellers publish monotone non-increasing price/quantity curves with finite
stock; buyers pool their demand in time-bounded fairs; the engine finds the
allocation that minimizes the aggregated unit price, predicts where the
price is heading, and settles the money flows so the manager margin is
covered exactly.
"""

from .allocation import (
    Allocation,
    AllocationEntry,
    FairPriceCurve,
    FairPricePoint,
    InfeasibleDemandError,
    OptimalPoint,
    Seller,
    fair_price_curve,
    fair_unit_price,
    greedy_allocation,
    optimal_allocation,
    optimal_demand,
    total_availability,
)
from .curves import (
    Envelope,
    LinearPlateauCurve,
    PriceCurve,
    TabularCurve,
    linear_curve,
    lower_envelope,
    tabular_curve,
)
from .fair import (
    BuyerHistory,
    BuyerOrder,
    Fair,
    FairConfig,
    FairStatus,
    LedgerCapacityError,
    LifecycleError,
    PaymentTiming,
    PricePrediction,
    SellerLedger,
    Settlement,
    fidelity_score,
    join_earliness,
    open_fair,
)
from .geo import (
    Position,
    ShippingCostModel,
    ShippingPlan,
    distance,
    shipping_plan,
)
from .synth import (
    ExperimentRun,
    PopulationSpec,
    audit_greedy_vs_exact,
    generate_sellers,
    random_small_instances,
    raw_parameter_draws,
    run_experiment,
)

__version__ = "0.1.0"
