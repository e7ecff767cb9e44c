"""Numerical toolkit for the 3D Riemannian manifold with circulant metric."""
