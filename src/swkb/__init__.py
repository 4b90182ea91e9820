"""Exact toolkit for the supersymmetric semiclassical series: generation to
arbitrary order, structural theorems verified by exact computation, and a
numerical quantization layer with an independent eigensolver oracle."""
