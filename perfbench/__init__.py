"""A steady benchmark of the OPTIQUE reproduction (see run.py)."""
