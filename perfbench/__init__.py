"""Fixed-seed benchmark of spandep; see run.py."""
