"""Secrecy rates of Gaussian wiretap channels observed through coarse ADCs.

Core objects: quantizer specs (adc), channel law and per-input transition
rows (channel), rates and entropy tools (infotheory), positive-rate
constructions (achievability), input-distribution search and optimality audits
(optimizer), self-check suites (verification), and a CLI (cli).
"""

from .achievability import (
    AchievabilityResult,
    ConstructOptions,
    PhaseAlignment,
    QpskBound,
    achieve,
    align_phase,
    apply_power_constraint,
    choose_amplitude,
    construct_positive_rate,
    crossover_probs,
    qpsk_bound,
    reduce_to_symmetric,
    zchannel_limit,
)
from .adc import (
    MAX_LEVELS,
    AdcSpec,
    ComplexAdcPair,
    is_symmetric_one_bit,
    one_bit,
    one_bit_pair,
    shift_thresholds,
)
from .channel import (
    UNDERFLOW_FLOOR,
    ComplexGain,
    WiretapChannel,
    q_function,
    transition_row,
    transition_rows,
)
from .errors import EqualGainError, SweepExhaustedError, ValidationError
from .infotheory import (
    DiscreteInput,
    RateReport,
    binary_entropy,
    folding_functions,
    secrecy_rate,
    z_rate,
)
from .optimizer import (
    KktReport,
    OptimizeConfig,
    OptimizeResult,
    SupportVerdict,
    check_support_condition,
    fold_input,
    folding_gap,
    kkt_check,
    optimize_wyner_rate,
    reflect_input,
)
from .verification import SuiteResult, run_verification

__version__ = "0.1.0"

__all__ = [
    "AchievabilityResult",
    "AdcSpec",
    "ComplexAdcPair",
    "ComplexGain",
    "ConstructOptions",
    "DiscreteInput",
    "EqualGainError",
    "KktReport",
    "MAX_LEVELS",
    "OptimizeConfig",
    "OptimizeResult",
    "PhaseAlignment",
    "QpskBound",
    "RateReport",
    "SuiteResult",
    "SupportVerdict",
    "SweepExhaustedError",
    "UNDERFLOW_FLOOR",
    "ValidationError",
    "WiretapChannel",
    "achieve",
    "align_phase",
    "apply_power_constraint",
    "binary_entropy",
    "check_support_condition",
    "choose_amplitude",
    "construct_positive_rate",
    "crossover_probs",
    "fold_input",
    "folding_functions",
    "folding_gap",
    "is_symmetric_one_bit",
    "kkt_check",
    "one_bit",
    "one_bit_pair",
    "optimize_wyner_rate",
    "q_function",
    "qpsk_bound",
    "reduce_to_symmetric",
    "reflect_input",
    "run_verification",
    "secrecy_rate",
    "shift_thresholds",
    "transition_row",
    "transition_rows",
    "z_rate",
    "zchannel_limit",
    "__version__",
]
