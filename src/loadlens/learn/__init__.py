"""Supervised activity prediction (linear baseline + small network) and
intensity clustering. The package re-exports nothing, so importing one of
its modules loads only what that module imports."""
