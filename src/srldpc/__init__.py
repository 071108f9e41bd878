"""Sparse regression LDPC codec laboratory.

Encode and decode SR-LDPC codes over a simulated AWGN channel with the
joint AMP-BP decoder, predict the decoder trajectory with a scalar
state-evolution recursion, and run Monte-Carlo error-rate experiments.
"""

from .gf import GF2m
from .ldpc import LdpcCode, build_code
from .codec import DesignMatrix
from .amp import decode, DecoderParams
from .denoiser import BpDenoiser, Schedule

__all__ = [
    "GF2m",
    "LdpcCode",
    "build_code",
    "DesignMatrix",
    "decode",
    "DecoderParams",
    "BpDenoiser",
    "Schedule",
]
