import json

import numpy as np
import pytest

from modlab._io import json_text


def test_json_text_writes_numpy_values_as_python_values():
    # an array is its list, a scalar its Python value: the same text as the plain values give
    data = {"array": np.array([0.1, 2.0 / 3.0]), "float": np.float64(0.1), "int": np.int64(7),
            "bool": np.bool_(True), "nested": [{"counts": np.arange(3)}]}
    plain = {"array": [0.1, 2.0 / 3.0], "float": 0.1, "int": 7, "bool": True, "nested": [{"counts": [0, 1, 2]}]}
    assert json_text(data) == json_text(plain)
    assert json.loads(json_text(data)) == plain


@pytest.mark.parametrize("value", [1j, np.complex128(1j), np.array([1 + 2j]), object()],
                         ids=["complex", "numpy-complex", "complex-array", "object"])
def test_json_text_refuses_what_json_has_no_form_for(value):
    with pytest.raises(TypeError):
        json_text({"value": value})
