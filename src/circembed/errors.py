"""Shared exception types."""


class ParseError(ValueError):
    """Malformed bytes or text; ``offset`` is the byte offset where parsing gave up."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = int(offset)
