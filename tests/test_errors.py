"""The shared error types' one helper, `require_keys`."""

import pytest

from regimecast.errors import DomainError, ModelFormatError, require_keys


@pytest.mark.parametrize("obj, says", [
    ([["seed", 1]], "model file must be a JSON object"),
    ("seed", "model file must be a JSON object"),
    ({"seed": 1}, "model file is missing 'hidden'"),
], ids=["list", "string", "missing-key"])
def test_require_keys_names_what_is_wrong(obj, says):
    with pytest.raises(ModelFormatError) as err:
        require_keys(obj, ("seed", "hidden"), "model file")
    assert says in str(err.value)
    assert isinstance(err.value, DomainError)
