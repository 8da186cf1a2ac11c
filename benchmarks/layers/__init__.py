"""Layer-attributed campaign benchmark (see ``README.md`` beside this file)."""
