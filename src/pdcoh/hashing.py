"""The one digest that identifies a configuration in product headers."""

import hashlib
import json


def config_digest(fields):
    """First 16 hex digits of the sha256 of `fields` as sorted-key JSON."""
    text = json.dumps(fields, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]
