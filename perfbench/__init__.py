"""The repository benchmark: CLAPF+ training and HTTP serving, end to end
and layer by layer.  Entry point: ``python3 perfbench/run.py``."""
