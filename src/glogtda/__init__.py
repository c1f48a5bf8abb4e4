"""Topological feature pipeline for 2D/3D grayscale volumes.

Volumes are filtered by a pair of convolution grades (Gaussian-smoothed
intensity and Laplacian-of-Gaussian response); the resulting two-parameter
sublevel module is approximated by barcodes along a grid of slope-1 lines,
rasterized into persistence images, and classified with a small MLP.
"""
