"""Curriculum-grounded MCQ generation and evaluation pipeline."""

__version__ = "0.1.0"
