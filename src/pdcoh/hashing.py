"""The one digest that identifies a configuration in product headers."""

import json

try:  # hashlib loads OpenSSL, about 3.5 MB; random.py, too, takes the lean module
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256


def config_digest(fields):
    """First 16 hex digits of the sha256 of `fields` as sorted-key JSON."""
    text = json.dumps(fields, sort_keys=True)
    return sha256(text.encode()).hexdigest()[:16]
