"""Exact fusion-graph construction and verification for PSL2(q), Sz(q), PSU3(q)."""

from .formulas import (IntersectionArray, InvalidQ, deza_pair, is_strict, krmu,
                       p22_numbers, predicted_chi_array, predicted_deza_params)
from .fusion import PiSpec, build_fusion_graph
from .gf2 import FieldCtx
from .graphs import (DdgCert, DezaCert, Graph, antipodal_classes,
                     common_neighbor_spectrum, deza_check, ddg_check,
                     intersection_array, recognize_clique_union,
                     recognize_complete_multipartite)
from .groups import (GroupSpec, InvolutionClass, SzEvenExponent, generators,
                     involution_class, make_group, sylow_partition)
from .pipeline import VerificationReport, run_verify

__version__ = "0.1.0"
