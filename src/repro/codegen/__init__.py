"""Code generation backends: host-language (§4), native (§5), hybrid (§6)."""

from .compiler import CompiledQuery, compile_source

__all__ = ["CompiledQuery", "compile_source"]
