"""Mini in-memory relational engine — three paradigms, one plan (Table 1).

* :class:`~repro.relational.volcano.VolcanoExecutor` — tuple-at-a-time
  interpreted (≈ SQL Server 2014 classic engine);
* :class:`~repro.relational.compiled.CompiledExecutor` — plan compiled to
  fused loops (≈ Hekaton native stored procedures);
* :class:`~repro.relational.vectorized.VectorizedExecutor` — column-batch
  interpreted (≈ VectorWise).
"""

from .compiled import CompiledExecutor
from .sql_plans import TPCH_QUERY_NAMES, PlanBundle, tpch_bundle
from .vectorized import VBatch, VectorizedExecutor, vec_eval
from .volcano import VolcanoExecutor

__all__ = [
    "VolcanoExecutor",
    "CompiledExecutor",
    "VectorizedExecutor",
    "VBatch",
    "vec_eval",
    "PlanBundle",
    "tpch_bundle",
    "TPCH_QUERY_NAMES",
]
