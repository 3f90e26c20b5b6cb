"""Portfolio allocation engine: six convex allocators, a convolutional
policy-gradient allocator, and a shared walk-forward backtesting harness."""

__version__ = "0.1.0"
