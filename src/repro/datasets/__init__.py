"""Datasets: the paper's toy graph plus synthetic BibNet and QLog generators.

The real DBLP/Citeseer network and MSN query log are not redistributable;
:mod:`repro.datasets.bibnet` and :mod:`repro.datasets.qlog` generate
structure-preserving synthetic substitutes (see README.md, Datasets).
"""

from repro.datasets.bibnet import BibNet, BibNetConfig, generate_bibnet
from repro.datasets.qlog import (
    MultiTenantLog,
    QLog,
    QLogConfig,
    TenantSpec,
    generate_qlog,
    sample_multitenant_queries,
    sample_zipf_queries,
)
from repro.datasets.toy import FIG4_EXPECTED_MASS, TOY_TYPE_NAMES, toy_bibliographic_graph

__all__ = [
    "BibNet",
    "BibNetConfig",
    "generate_bibnet",
    "MultiTenantLog",
    "QLog",
    "QLogConfig",
    "TenantSpec",
    "generate_qlog",
    "sample_multitenant_queries",
    "sample_zipf_queries",
    "FIG4_EXPECTED_MASS",
    "TOY_TYPE_NAMES",
    "toy_bibliographic_graph",
]
