"""File formats, manifests, and checkpoint serialization."""
