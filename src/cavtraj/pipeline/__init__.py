"""Synthetic scenario generation and the frame, pose and scenario file formats."""
