"""Kernels and images of Steenrod squares acting on monomial modules over F_2."""
