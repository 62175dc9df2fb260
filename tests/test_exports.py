import oddsaudit


def test_public_names_resolve_once_in_sorted_order():
    names = oddsaudit.__all__
    assert all(hasattr(oddsaudit, name) for name in names)
    assert len(names) == len(set(names))
    assert names == sorted(names)
    # One fixed evidence cap, and no error for raising it.
    for listed in (names, dir(oddsaudit)):
        assert [name for name in listed if "EVIDENCE" in name] == ["MAX_EVIDENCE"]
        assert not [name for name in listed if name.endswith("CapError")]
