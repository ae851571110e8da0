"""regsel: feature selection and regression diagnostics.

Typed tabular ingestion with explicit missing-data policies, treatment-coded
design matrices, a rank-revealing OLS core, influence diagnostics (leverage,
Cook's distance, PRESS, DFFITS), VIF-based multicollinearity pruning,
AIC-driven forward/backward/stepwise term selection, and seeded Monte Carlo
cross-validation with MSPE reporting.  Each module's ``__all__`` names its
public API, and the package re-exports all of them.
"""

from .table import *
from .ols import *
from .influence import *
from .stepwise import *
from .crossval import *
from .pipeline import *
from .report import *

__version__ = "0.1.0"

__all__ = (table.__all__ + ols.__all__ + influence.__all__ + stepwise.__all__
           + crossval.__all__ + pipeline.__all__ + report.__all__)
