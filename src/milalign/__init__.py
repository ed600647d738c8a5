"""Permutation-invariant bag scoring and contrastive alignment.

The package pairs an image represented as an unordered bag of region
features with a document represented as an unordered bag of sentence
features, scores the pair through interchangeable local/global
aggregators, trains two small encoders with an asymmetric text-to-image
contrastive loss, and evaluates classification, grounding and retrieval
on a synthetic latent-concept corpus.
"""

import ctypes
import sys

from .autodiff import ContractError, Var, finite_difference_check

__version__ = "0.1.0"

__all__ = ["ContractError", "Var", "finite_difference_check", "__version__"]

# glibc mallopt parameters and the values the heap policy gives them
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_TRIM_THRESHOLD = 1 << 30   # far above any step's working set
_MMAP_THRESHOLD = 32 << 20  # glibc's 64-bit maximum


def _fix_heap_policy() -> None:
    """On Linux with glibc, keep freed memory in the heap rather than
    handing it back to the system after every training step and faulting
    it in again on the next: the heap is never trimmed below 1 GiB of free
    top, and blocks up to 32 MiB come from the heap rather than from their
    own mappings. The process's resident size therefore stays at its
    high-water mark until it exits. Elsewhere, or without `mallopt`, this
    does nothing."""
    if not sys.platform.startswith("linux"):
        return
    # CDLL(None) looks the symbol up in the running process; find_library
    # would import subprocess and may run ldconfig
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)


_fix_heap_policy()
