"""Desk-scale laboratory for semi-supervised learning under class imbalance.

Everything runs on 2-D synthetic data with a small dense network, 64-bit
floats, and seeded RNG streams, so full training campaigns finish in minutes
on one core and every number is reproducible bit for bit.
"""
